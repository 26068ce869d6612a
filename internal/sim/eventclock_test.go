package sim

// Tests of the event clock: when every attached MAC sleeps and the air
// is clear, Run jumps straight to the next scheduled arrival, wake
// obligation or run target instead of ticking empty slots, and the jump
// is invisible to MACs and sources and reaches sinks as one idle span.

import (
	"math/rand"
	"testing"

	"relmac/internal/frames"
)

// slotSource is an EventSource test double releasing requests at fixed
// slots and counting every Arrivals consultation.
type slotSource struct {
	at    map[Slot][]*Request
	keys  []Slot // ascending
	calls []Slot
}

func newSlotSource() *slotSource { return &slotSource{at: map[Slot][]*Request{}} }

func (s *slotSource) add(t Slot, req *Request) {
	s.at[t] = append(s.at[t], req)
	i := 0
	for i < len(s.keys) && s.keys[i] < t {
		i++
	}
	if i == len(s.keys) || s.keys[i] != t {
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = t
	}
}

func (s *slotSource) Arrivals(now Slot, rng *rand.Rand) []*Request {
	s.calls = append(s.calls, now)
	return s.at[now]
}

func (s *slotSource) NextArrival(after Slot) (Slot, bool) {
	for _, t := range s.keys {
		if t >= after {
			return t, true
		}
	}
	return 0, false
}

// spanRecorder records slot events, simulated slots and skipped spans
// separately.
type spanRecorder struct {
	slots []Slot
	spans [][2]Slot
}

func (r *spanRecorder) Kinds() KindSet { return KindsOf(EvSlot) }

func (r *spanRecorder) On(ev Event) {
	if ev.End() == ev.Slot {
		r.slots = append(r.slots, ev.Slot)
		return
	}
	if ev.Airing != nil || ev.Collided() {
		panic("idle span carried airing transmissions or a collision")
	}
	r.spans = append(r.spans, [2]Slot{ev.Slot, ev.End()})
}

func TestEventClockSkipsWholeIdleRun(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	rec := &spanRecorder{}
	e := New(Config{Topo: tp, Sink: rec})
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)

	e.Run(100, nil)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// Both stations tick slot 0, sleep, and the rest of the run is one
	// idle span.
	for name, m := range map[string]*sleepyMAC{"a": a, "b": b} {
		if len(m.ticked) != 1 || m.ticked[0] != 0 {
			t.Fatalf("%s ticked %v, want only slot 0", name, m.ticked)
		}
	}
	if len(rec.spans) != 1 || rec.spans[0] != [2]Slot{1, 99} {
		t.Fatalf("spans = %v, want [[1 99]]", rec.spans)
	}
	if len(rec.slots) != 1 || rec.slots[0] != 0 {
		t.Fatalf("per-slot events = %v, want only slot 0", rec.slots)
	}
}

func TestEventClockStopsAtScheduledArrival(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)
	src := newSlotSource()
	src.add(50, &Request{ID: 1, Src: 1, Kind: Broadcast, Deadline: 1000})

	e.Run(100, src)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// The source must be consulted only on simulated slots: slot 0
	// (everyone still awake) and slot 50 (the announced arrival).
	want := []Slot{0, 50}
	if len(src.calls) != len(want) || src.calls[0] != 0 || src.calls[1] != 50 {
		t.Fatalf("Arrivals consulted at %v, want %v", src.calls, want)
	}
	if len(b.ticked) != 2 || b.ticked[0] != 0 || b.ticked[1] != 50 {
		t.Fatalf("receiver ticked %v, want [0 50]", b.ticked)
	}
	// The wake across the skipped idle stretch is additive: 49 skipped
	// slots, none busy.
	if len(b.extends) != 1 || b.extends[0] != 49 {
		t.Fatalf("extends = %v, want [49]", b.extends)
	}
}

func TestEventClockAirborneFramePreventsSkip(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e := New(Config{Topo: tp})
	// Station 0 is a scripted sender: not a Sleeper, so the network is
	// never whole-asleep while it is attached — but the point here is
	// the tx table: its data frame keeps txN non-zero through slot 6.
	sender := newScriptMAC()
	sender.at(2, ctl(frames.Data, 0, 1))
	e.SetMAC(0, sender)
	sleepy := &sleepyMAC{quiet: true}
	e.SetMAC(1, sleepy)

	e.Run(12, nil)
	if sleepy.delivered != 1 {
		t.Fatalf("delivered = %d, want the data frame", sleepy.delivered)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12", e.Now())
	}
}

// downWindow is a CrashScheduler test double: the given station is down
// for [from, to) and announces both transitions.
type downWindow struct {
	station  int
	from, to Slot
}

func (d *downWindow) Down(station int, now Slot) bool {
	return station == d.station && now >= d.from && now < d.to
}

func (d *downWindow) Erase(f *frames.Frame, sender, receiver int, now Slot) bool {
	return false
}

func (d *downWindow) NextCrashChange(station int, now Slot) (Slot, bool) {
	if station != d.station {
		return 0, false
	}
	switch {
	case now < d.from:
		return d.from, true
	case now < d.to:
		return d.to, true
	default:
		return 0, false
	}
}

func TestEventClockCrashTransitionsAreWakeObligations(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	imp := &downWindow{station: 1, from: 20, to: 30}
	rec := &spanRecorder{}
	e := New(Config{Topo: tp, Impairment: imp, Sink: rec})
	a := &sleepyMAC{quiet: true}
	b := &sleepyMAC{quiet: true}
	e.SetMAC(0, a)
	e.SetMAC(1, b)

	e.Run(100, nil)
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
	// Station 1 ticks slot 0, sleeps with a wake obligation at its
	// crash slot 20; there its history is resynchronised (19 idle slots
	// skipped) but the Tick is withheld while down. It stays in the
	// worklist through the down window and resumes ticking at recovery
	// slot 30, then sleeps for good (no further transitions).
	if len(b.ticked) != 2 || b.ticked[0] != 0 || b.ticked[1] != 30 {
		t.Fatalf("crashed station ticked %v, want [0 30]", b.ticked)
	}
	if len(b.extends) != 1 || b.extends[0] != 19 {
		t.Fatalf("extends = %v, want [19] (restore at the down transition)", b.extends)
	}
	if len(b.wakes) != 0 {
		t.Fatalf("wakes = %v, want none", b.wakes)
	}
	// The skipped stretches: [1,19] before the obligation and [31,99]
	// after recovery; slots 20–30 are simulated because the woken
	// station sits in the worklist through its down window.
	if len(rec.spans) != 2 || rec.spans[0] != [2]Slot{1, 19} || rec.spans[1] != [2]Slot{31, 99} {
		t.Fatalf("spans = %v, want [[1 19] [31 99]]", rec.spans)
	}
	wantSlots := 1 + 11 // slot 0, then 20..30
	if len(rec.slots) != wantSlots {
		t.Fatalf("simulated %d slots (%v), want %d", len(rec.slots), rec.slots, wantSlots)
	}
}

// TestEventClockPRNGNeutral proves a skipped run leaves the engine PRNG
// exactly where per-slot stepping leaves it: the draw after the run
// must agree between a skipping engine and a reference engine fed the
// same seed and source.
func TestEventClockPRNGNeutral(t *testing.T) {
	run := func(reference bool) float64 {
		tp := lineTopo(2, 0.1, 0.15)
		e := New(Config{Topo: tp, Seed: 42, Reference: reference})
		e.SetMAC(0, &sleepyMAC{quiet: true})
		e.SetMAC(1, &sleepyMAC{quiet: true})
		src := newSlotSource()
		src.add(40, &Request{ID: 1, Src: 0, Kind: Broadcast, Deadline: 1000})
		e.Run(200, src)
		return e.Rand().Float64()
	}
	if opt, ref := run(false), run(true); opt != ref {
		t.Fatalf("post-run PRNG diverged: optimized %v, reference %v", opt, ref)
	}
}
