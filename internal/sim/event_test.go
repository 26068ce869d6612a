package sim

import (
	"fmt"
	"strings"
	"testing"

	"relmac/internal/frames"
)

// funcSink adapts a closure to Sink for tests.
type funcSink struct {
	kinds KindSet
	on    func(Event)
}

func (s *funcSink) Kinds() KindSet { return s.kinds }
func (s *funcSink) On(ev Event)    { s.on(ev) }

// logSink appends "name:kind" entries to a shared log, so tests can
// assert fan-out ordering across sinks.
func logSink(name string, kinds KindSet, log *[]string) *funcSink {
	return &funcSink{kinds: kinds, on: func(ev Event) { *log = append(*log, name+":"+ev.Kind.String()) }}
}

// panicSink panics on every event.
type panicSink struct{}

func (panicSink) Kinds() KindSet { return ProtocolKinds }
func (panicSink) On(Event)       { panic("boom") }

func TestCombineObserversCollapsesTrivialCases(t *testing.T) {
	if got := Combine(); got != nil {
		t.Errorf("Combine() = %T, want nil", got)
	}
	if got := Combine(nil, nil); got != nil {
		t.Errorf("Combine(nil, nil) = %T, want nil", got)
	}
	var log []string
	a := logSink("a", ProtocolKinds, &log)
	if got := Combine(nil, a, nil); got != Sink(a) {
		t.Errorf("Combine(nil, a, nil) = %T, want the single sink itself", got)
	}
	b := logSink("b", KindsOf(EvSlot), &log)
	m, ok := Combine(a, b).(*MultiSink)
	if !ok || len(m.sinks) != 2 {
		t.Fatalf("Combine(a, b) = %T, want a MultiSink of 2", Combine(a, b))
	}
	if m.Kinds() != ProtocolKinds|KindsOf(EvSlot) {
		t.Errorf("Combine(a, b).Kinds() = %b, want the union %b", m.Kinds(), ProtocolKinds|KindsOf(EvSlot))
	}
}

func TestMultiObserverFansOutInRegistrationOrder(t *testing.T) {
	var log []string
	m := Combine(logSink("a", ProtocolKinds, &log), logSink("b", ProtocolKinds, &log), logSink("c", ProtocolKinds, &log))
	req := &Request{ID: 7, Src: 3}
	f := &frames.Frame{Type: frames.RTS}
	for _, ev := range []Event{
		{Kind: EvSubmit, Slot: 1, Req: req},
		{Kind: EvContention, Slot: 2, Req: req},
		{Kind: EvFrameTx, Slot: 3, Frame: f, A: 3},
		{Kind: EvDataRx, Slot: 4, Frame: f},
		{Kind: EvRound, Slot: 5, Req: req, A: 2},
		{Kind: EvComplete, Slot: 6, Req: req},
		{Kind: EvAbort, Slot: 7, Req: req},
	} {
		m.On(ev)
	}
	want := []string{
		"a:submit", "b:submit", "c:submit",
		"a:contention", "b:contention", "c:contention",
		"a:frame-tx", "b:frame-tx", "c:frame-tx",
		"a:data-rx", "b:data-rx", "c:data-rx",
		"a:round", "b:round", "c:round",
		"a:complete", "b:complete", "c:complete",
		"a:abort", "b:abort", "c:abort",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("fan-out order = %v, want %v", log, want)
	}
}

func TestMultiObserverPanicIdentifiesObserver(t *testing.T) {
	var log []string
	a := logSink("a", ProtocolKinds, &log)
	m := Combine(a, panicSink{}, a)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the sink panic to propagate")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"sink 2/3", "sim.panicSink", "boom"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message %q does not mention %q", msg, want)
			}
		}
		// The sink before the panicking one still saw the event.
		if len(log) != 1 || log[0] != "a:submit" {
			t.Errorf("log before panic = %v, want [a:submit]", log)
		}
	}()
	m.On(Event{Kind: EvSubmit, Req: &Request{ID: 1}})
}

// lifecycleKinds are the three fine-grained per-message kinds.
var lifecycleKinds = KindsOf(EvServiceStart, EvRoundStart, EvResponseDrop)

// recLifecycle records one line per lifecycle event in arrival order.
type recLifecycle struct {
	lines []string
}

func (r *recLifecycle) Kinds() KindSet { return lifecycleKinds }

func (r *recLifecycle) On(ev Event) {
	switch ev.Kind {
	case EvServiceStart:
		r.lines = append(r.lines, fmt.Sprintf("service msg=%d t=%d", ev.Req.ID, ev.Slot))
	case EvRoundStart:
		r.lines = append(r.lines, fmt.Sprintf("round msg=%d r=%d n=%d t=%d", ev.Req.ID, ev.A, ev.B, ev.Slot))
	case EvResponseDrop:
		r.lines = append(r.lines, fmt.Sprintf("drop st=%d %s t=%d", ev.Station, ev.Frame.Type, ev.Slot))
	default:
		r.lines = append(r.lines, "unwanted "+ev.Kind.String())
	}
}

func TestCombineLifecycleObservers(t *testing.T) {
	a, b := &recLifecycle{}, &recLifecycle{}
	var log []string
	multi := Combine(a, nil, b, logSink("protocol", ProtocolKinds, &log))
	req := &Request{ID: 9}
	multi.On(Event{Kind: EvServiceStart, Slot: 3, Req: req})
	multi.On(Event{Kind: EvRoundStart, Slot: 5, Req: req, A: 1, B: 4})
	multi.On(Event{Kind: EvResponseDrop, Slot: 7, Station: 2, Frame: &frames.Frame{Type: frames.CTS}})
	multi.On(Event{Kind: EvSubmit, Slot: 8, Req: req})
	want := []string{"service msg=9 t=3", "round msg=9 r=1 n=4 t=5", "drop st=2 CTS t=7"}
	for _, rec := range []*recLifecycle{a, b} {
		if fmt.Sprint(rec.lines) != fmt.Sprint(want) {
			t.Errorf("fan-out stream = %v, want %v", rec.lines, want)
		}
	}
	if fmt.Sprint(log) != "[protocol:submit]" {
		t.Errorf("protocol-only sink saw %v, want only the submit", log)
	}
}

type panickyLifecycle struct{}

func (panickyLifecycle) Kinds() KindSet { return lifecycleKinds }
func (panickyLifecycle) On(Event)       { panic("boom") }

func TestMultiLifecycleObserverPanicAttribution(t *testing.T) {
	m := Combine(&recLifecycle{}, panickyLifecycle{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "sink 2/2") || !strings.Contains(msg, "panickyLifecycle") {
			t.Errorf("panic not attributed: %q", msg)
		}
	}()
	m.On(Event{Kind: EvRoundStart, Req: &Request{ID: 1}, A: 1, B: 1})
}

// TestEnvLifecycleReporting pins the Env.Report* emission: with no sink
// each is a no-op, and an attached sink sees the arguments verbatim with
// the engine clock and the reporting station's ID attached — and only
// the kinds it wants.
func TestEnvLifecycleReporting(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)

	bare := New(Config{Topo: tp})
	env := bare.EnvOf(0)
	if env.Wants(EvServiceStart) {
		t.Error("Wants(service-start) = true with no sink attached")
	}
	env.ReportServiceStart(&Request{ID: 1}) // no sink: must not panic
	env.ReportRoundStart(&Request{ID: 1}, 1, 2)
	env.ReportResponseDrop(&frames.Frame{Type: frames.ACK})
	env.ReportContention(&Request{ID: 1})

	rec := &recLifecycle{}
	hooked := New(Config{Topo: tp, Sink: rec})
	env = hooked.EnvOf(1)
	if !env.Wants(EvServiceStart) || !env.Wants(EvResponseDrop) {
		t.Error("Wants = false for a kind the attached sink wants")
	}
	if env.Wants(EvContention) || env.Wants(EvSlot) {
		t.Error("Wants = true for a kind no attached sink wants")
	}
	req := &Request{ID: 4}
	env.ReportServiceStart(req)
	env.ReportContention(req) // not wanted: never reaches the sink
	env.ReportRoundStart(req, 2, 3)
	env.ReportResponseDrop(&frames.Frame{Type: frames.NAK})
	want := []string{"service msg=4 t=0", "round msg=4 r=2 n=3 t=0", "drop st=1 NAK t=0"}
	if fmt.Sprint(rec.lines) != fmt.Sprint(want) {
		t.Errorf("reported stream = %v, want %v", rec.lines, want)
	}
}

func TestEventKindStrings(t *testing.T) {
	want := []string{"submit", "contention", "frame-tx", "data-rx", "round", "complete", "abort",
		"rx-ok", "rx-lost", "slot", "service-start", "round-start", "response-drop"}
	if len(want) != NumEventKinds {
		t.Fatalf("NumEventKinds = %d, want %d", NumEventKinds, len(want))
	}
	for k, s := range want {
		if got := EventKind(k).String(); got != s {
			t.Errorf("EventKind(%d) = %q, want %q", k, got, s)
		}
	}
	if got := EventKind(NumEventKinds).String(); got != fmt.Sprintf("EventKind(%d)", NumEventKinds) {
		t.Errorf("unknown kind string = %q", got)
	}
	if ProtocolKinds != KindsOf(EvSubmit, EvContention, EvFrameTx, EvDataRx, EvRound, EvComplete, EvAbort) {
		t.Errorf("ProtocolKinds = %b, want the seven kinds submit through abort", ProtocolKinds)
	}
}
