package obs

import (
	"fmt"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// feed hands a sink hand-built events — the in-package stand-in for
// prototest.Feed, which imports this package through metrics.
type feed struct{ sim.Sink }

func (f feed) emit(ev sim.Event) {
	if f.Kinds().Has(ev.Kind) {
		f.On(ev)
	}
}

func (f feed) slot(now sim.Slot, airing []sim.AiringTx, collided bool) {
	c := 0
	if collided {
		c = 1
	}
	f.emit(sim.Event{Kind: sim.EvSlot, Slot: now, Station: -1, A: int(now), B: c, Airing: &airing})
}

func (f feed) req(k sim.EventKind, req *sim.Request, now sim.Slot, a int) {
	f.emit(sim.Event{Kind: k, Slot: now, Station: req.Src, Req: req, A: a})
}

func (f feed) frameTx(fr *frames.Frame, sender int, now sim.Slot) {
	f.emit(sim.Event{Kind: sim.EvFrameTx, Slot: now, Station: sender, Frame: fr, A: int(now)})
}

func air(t frames.Type, sender int, msgID int64) sim.AiringTx {
	return sim.AiringTx{Frame: &frames.Frame{Type: t, MsgID: msgID}, Sender: sender}
}

func TestLedgerClassification(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	in := feed{l}
	req := &sim.Request{ID: 7}

	// Slot 0: nothing anywhere — idle.
	in.slot(0, nil, false)
	// Slot 1: message 7 enters backoff; channel still idle — contention.
	in.req(sim.EvContention, req, 1, 0)
	in.slot(1, nil, false)
	// Slot 2: its RTS airs — backoff over, busy slot is RTS.
	in.frameTx(&frames.Frame{Type: frames.RTS, MsgID: 7}, 0, 2)
	in.slot(2, []sim.AiringTx{air(frames.RTS, 0, 7)}, false)
	// Slot 3: CTS comes back.
	in.slot(3, []sim.AiringTx{air(frames.CTS, 1, 7)}, false)
	// Slot 4: DATA; a concurrent spatial-reuse CTS does not demote it.
	in.slot(4, []sim.AiringTx{air(frames.CTS, 5, 9), air(frames.Data, 0, 7)}, false)
	// Slot 5: RAK polling.
	in.slot(5, []sim.AiringTx{air(frames.RAK, 0, 7)}, false)
	// Slot 6: ACK reply.
	in.slot(6, []sim.AiringTx{air(frames.ACK, 2, 7)}, false)
	// Slot 7: BMW bookkeeping.
	in.slot(7, []sim.AiringTx{air(frames.NAK, 2, 8)}, false)
	// Slot 8: overlap — collision beats everything.
	in.slot(8, []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 3, 9)}, true)
	// Round one left residual receivers: message 7's later airtime is
	// retry overhead.
	in.req(sim.EvRound, req, 8, 2)
	in.slot(9, []sim.AiringTx{air(frames.Data, 0, 7)}, false)
	// Slot 10: a fresh message shares the slot — not pure retry.
	in.slot(10, []sim.AiringTx{air(frames.Data, 0, 7), air(frames.RTS, 4, 11)}, false)

	want := map[Category]int64{
		CatIdle:       1,
		CatContention: 1,
		CatRTS:        1,
		CatCTS:        1,
		CatData:       2, // slots 4 and 10
		CatRAK:        1,
		CatACK:        1,
		CatControl:    1,
		CatCollision:  1,
		CatRetry:      1,
	}
	for _, c := range Categories() {
		if got := reg.Counter("T.airtime." + c.String()).Value(); got != want[c] {
			t.Errorf("%s = %d, want %d", c, got, want[c])
		}
	}
	snap := l.Snapshot()
	if snap.TotalSlots != 11 {
		t.Errorf("total = %d, want 11", snap.TotalSlots)
	}
	if !snap.Conserved() {
		t.Errorf("categories do not sum to total: %+v", snap)
	}
}

func TestLedgerContentionClearsOnCompleteAndAbort(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	in := feed{l}
	a, b := &sim.Request{ID: 1}, &sim.Request{ID: 2}
	in.req(sim.EvContention, a, 0, 0)
	in.req(sim.EvContention, b, 0, 0)
	in.req(sim.EvComplete, a, 1, 0)
	in.slot(1, nil, false) // b still contending
	in.req(sim.EvAbort, b, 2, int(sim.AbortDeadline))
	in.slot(2, nil, false) // nobody left — idle
	if got := reg.Counter("T.airtime.contention").Value(); got != 1 {
		t.Errorf("contention = %d, want 1", got)
	}
	if got := reg.Counter("T.airtime.idle").Value(); got != 1 {
		t.Errorf("idle = %d, want 1", got)
	}
}

func TestLedgerPerMessageAirtime(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	in := feed{l}
	req := &sim.Request{ID: 3}
	// Five busy slots for message 3 — one of them shared by two frames of
	// the same message, which must count once.
	for s := sim.Slot(0); s < 4; s++ {
		in.slot(s, []sim.AiringTx{air(frames.Data, 0, 3)}, false)
	}
	in.slot(4, []sim.AiringTx{air(frames.RAK, 0, 3), air(frames.ACK, 1, 3)}, true)
	in.req(sim.EvComplete, req, 5, 0)
	h := reg.Histogram("T.airtime_per_message")
	if h.Count() != 1 || h.Mean() != 5 {
		t.Errorf("per-message airtime: n=%d mean=%g, want n=1 mean=5", h.Count(), h.Mean())
	}
}

func TestLedgerStationOverlay(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	in := feed{l}
	l.TrackStations(2)
	in.slot(0, []sim.AiringTx{air(frames.Data, 0, 1)}, false)
	in.slot(1, []sim.AiringTx{air(frames.CTS, 1, 1), air(frames.RTS, 5, 2)}, false)
	if got := reg.Counter("T.airtime.station.0.busy").Value(); got != 1 {
		t.Errorf("station 0 busy = %d, want 1", got)
	}
	if got := reg.Counter("T.airtime.station.1.busy").Value(); got != 1 {
		t.Errorf("station 1 busy = %d, want 1", got)
	}
	// Sender 5 is past the bound: ledgered, not overlaid.
	if got := reg.Counter("T.airtime.total").Value(); got != 2 {
		t.Errorf("total = %d, want 2", got)
	}
}

func TestLedgerSortedCategories(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg, "T")
	in := feed{l}
	in.slot(0, nil, false)
	in.slot(1, nil, false)
	in.slot(2, []sim.AiringTx{air(frames.Data, 0, 1)}, false)
	names, counts := l.Snapshot().SortedCategories()
	if len(names) != NumCategories {
		t.Fatalf("got %d categories, want %d", len(names), NumCategories)
	}
	if names[0] != "idle" || counts[0] != 2 {
		t.Errorf("top category = %s/%d, want idle/2", names[0], counts[0])
	}
	if names[1] != "data" || counts[1] != 1 {
		t.Errorf("second category = %s/%d, want data/1", names[1], counts[1])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("counts not descending at %d: %v", i, counts)
		}
	}
}

// TestLedgerIdleSpanMatchesPerSlot pins the merged slot handler: a
// skipped idle span charges exactly what stepping its slots one by one
// charges, in either category the span can land in.
func TestLedgerIdleSpanMatchesPerSlot(t *testing.T) {
	for _, contending := range []bool{false, true} {
		stepped, spanned := NewRegistry(), NewRegistry()
		for _, reg := range []*Registry{stepped, spanned} {
			l := NewLedger(reg, "T")
			in := feed{l}
			if contending {
				in.req(sim.EvContention, &sim.Request{ID: 1}, 0, 0)
			}
			if reg == stepped {
				for s := sim.Slot(3); s <= 9; s++ {
					in.slot(s, nil, false)
				}
			} else {
				in.emit(sim.Event{Kind: sim.EvSlot, Slot: 3, Station: -1, A: 9})
			}
		}
		if a, b := stepped.Snapshot(), spanned.Snapshot(); fmt.Sprint(a.Counters) != fmt.Sprint(b.Counters) {
			t.Errorf("contending=%v: span charged %v, per-slot %v", contending, b.Counters, a.Counters)
		}
	}
}
