package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/topo"
)

// chaosMAC transmits random frames at random times, ignoring carrier
// sense entirely — a stress generator for channel invariants.
type chaosMAC struct {
	rng  *rand.Rand
	rate float64
}

func (m *chaosMAC) Tick(env *Env) *frames.Frame {
	if env.Transmitting() || m.rng.Float64() >= m.rate {
		return nil
	}
	t := frames.RTS
	if m.rng.Float64() < 0.3 {
		t = frames.Data
	}
	return &frames.Frame{
		Type: t, Dst: frames.Addr(m.rng.Intn(20)),
		MsgID: int64(m.rng.Intn(50)), Duration: m.rng.Intn(10),
	}
}

func (m *chaosMAC) Deliver(env *Env, f *frames.Frame) {}
func (m *chaosMAC) Submit(env *Env, req *Request)     {}

// invariantTracer checks, for every delivery, that the frame was really
// transmitted by an in-range station and that its airtime elapsed.
type invariantTracer struct {
	t     *testing.T
	topo  *topo.Topology
	tm    frames.Timing
	start map[*frames.Frame]Slot
	txer  map[*frames.Frame]int
}

func (tr *invariantTracer) Kinds() KindSet { return KindsOf(EvFrameTx, EvRxOK, EvRxLost) }

func (tr *invariantTracer) On(ev Event) {
	switch ev.Kind {
	case EvFrameTx:
		tr.txStart(ev.Frame, ev.Station, ev.Slot, ev.End())
	case EvRxOK:
		tr.rxOK(ev.Frame, ev.Station, ev.Slot)
	case EvRxLost:
		if _, ok := tr.start[ev.Frame]; !ok {
			tr.t.Errorf("lost frame %v was never transmitted", ev.Frame)
		}
	}
}

func (tr *invariantTracer) txStart(f *frames.Frame, sender int, start, end Slot) {
	if got := end - start + 1; int(got) != tr.tm.Airtime(f.Type) {
		tr.t.Errorf("airtime of %v = %d slots, want %d", f, got, tr.tm.Airtime(f.Type))
	}
	tr.start[f] = start
	tr.txer[f] = sender
}

func (tr *invariantTracer) rxOK(f *frames.Frame, receiver int, now Slot) {
	start, ok := tr.start[f]
	if !ok {
		tr.t.Errorf("delivered frame %v was never transmitted", f)
		return
	}
	if now != start+Slot(tr.tm.Airtime(f.Type))-1 {
		tr.t.Errorf("frame %v delivered at %d, started %d", f, now, start)
	}
	sender := tr.txer[f]
	if !tr.topo.InRange(sender, receiver) {
		tr.t.Errorf("frame from %d delivered out of range to %d", sender, receiver)
	}
	if sender == receiver {
		tr.t.Error("station received its own frame")
	}
}

func TestChannelInvariantsUnderChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tp := topo.Uniform(20, 0.3, rng)
	tr := &invariantTracer{
		t: t, topo: tp, tm: frames.DefaultTiming(),
		start: map[*frames.Frame]Slot{}, txer: map[*frames.Frame]int{},
	}
	e := New(Config{Topo: tp, Sink: tr, Seed: 5, Capture: capture.ZorziRao{}})
	for i := 0; i < tp.N(); i++ {
		e.SetMAC(i, &chaosMAC{rng: rand.New(rand.NewSource(int64(i))), rate: 0.2})
	}
	e.Run(2000, nil)
	if len(tr.start) == 0 {
		t.Fatal("chaos generated no transmissions")
	}
}

// Under chaos, every receiver of a clean slot either decodes or loses a
// frame — the union of rx-ok and rx-lost receivers per frame must equal the
// sender's in-range neighbor set.
func TestEveryNeighborAccountedFor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tp := topo.Uniform(15, 0.35, rng)
	counts := map[*frames.Frame]int{}
	senders := map[*frames.Frame]int{}
	ends := map[*frames.Frame]Slot{}
	tr := &funcTracer{
		onTx: func(f *frames.Frame, sender int, start, end Slot) {
			senders[f] = sender
			ends[f] = end
		},
		onRx:   func(f *frames.Frame, r int, now Slot) { counts[f]++ },
		onLost: func(f *frames.Frame, r int, now Slot) { counts[f]++ },
	}
	e := New(Config{Topo: tp, Sink: tr, Seed: 9})
	for i := 0; i < tp.N(); i++ {
		e.SetMAC(i, &chaosMAC{rng: rand.New(rand.NewSource(100 + int64(i))), rate: 0.15})
	}
	e.Run(1500, nil)
	if len(senders) == 0 {
		t.Fatal("no transmissions")
	}
	for f, sender := range senders {
		if ends[f] >= 1500 {
			continue // still in the air when the run ended
		}
		if counts[f] != tp.Degree(sender) {
			t.Fatalf("frame %v from %d accounted %d receivers, degree %d",
				f, sender, counts[f], tp.Degree(sender))
		}
	}
}

type funcTracer struct {
	onTx   func(*frames.Frame, int, Slot, Slot)
	onRx   func(*frames.Frame, int, Slot)
	onLost func(*frames.Frame, int, Slot)
}

func (t *funcTracer) Kinds() KindSet { return KindsOf(EvFrameTx, EvRxOK, EvRxLost) }

func (t *funcTracer) On(ev Event) {
	switch ev.Kind {
	case EvFrameTx:
		t.onTx(ev.Frame, ev.Station, ev.Slot, ev.End())
	case EvRxOK:
		t.onRx(ev.Frame, ev.Station, ev.Slot)
	case EvRxLost:
		t.onLost(ev.Frame, ev.Station, ev.Slot)
	}
}

// Full determinism under chaos + capture: identical seeds produce
// identical delivery traces.
func TestChaosDeterminism(t *testing.T) {
	run := func() string {
		rng := rand.New(rand.NewSource(33))
		tp := topo.Uniform(12, 0.3, rng)
		var log []string
		tr := &funcTracer{
			onTx: func(f *frames.Frame, s int, a, b Slot) {},
			onRx: func(f *frames.Frame, r int, now Slot) {
				log = append(log, fmt.Sprintf("%d:%s@%d", now, f.Type, r))
			},
			onLost: func(f *frames.Frame, r int, now Slot) {},
		}
		e := New(Config{Topo: tp, Sink: tr, Seed: 77, Capture: capture.ZorziRao{}, ErrRate: 0.05})
		for i := 0; i < tp.N(); i++ {
			e.SetMAC(i, &chaosMAC{rng: rand.New(rand.NewSource(7 + int64(i))), rate: 0.25})
		}
		e.Run(800, nil)
		return fmt.Sprint(log)
	}
	if run() != run() {
		t.Error("chaos runs with identical seeds diverged")
	}
}

func TestEnvAccessors(t *testing.T) {
	tp := topo.FromPoints([]geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.2, 0.2)}, 0.2)
	e := New(Config{Topo: tp})
	m := newScriptMAC()
	e.SetMAC(0, m)
	e.SetMAC(1, newScriptMAC())
	env := &e.envs[0]
	if env.Node() != 0 {
		t.Error("Node wrong")
	}
	if env.Pos() != geom.Pt(0.1, 0.2) {
		t.Error("Pos wrong")
	}
	if len(env.Neighbors()) != 1 || env.Neighbors()[0] != 1 {
		t.Error("Neighbors wrong")
	}
	if env.Timing() != frames.DefaultTiming() {
		t.Error("Timing wrong")
	}
	if env.Topo() != tp {
		t.Error("Topo wrong")
	}
	if env.Transmitting() {
		t.Error("fresh station transmitting?")
	}
	if env.Rand() == nil {
		t.Error("Rand nil")
	}
}
