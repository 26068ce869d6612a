// Package prototest provides the scaffolding used by the protocol test
// suites: canned topologies, a trace recorder that turns channel events
// into golden-comparable strings, scripted interferer stations, and a Run
// wrapper bundling engine, metrics and traffic script.
//
// It is imported only from _test.go files.
package prototest

import (
	"fmt"
	"math"
	"strings"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/metrics"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// TraceRecorder collects channel events as strings like
// "12 TX RTS 0→1" and "13 RX CTS 1→0 @0".
type TraceRecorder struct {
	Events []string
	// TxOnly suppresses RX events when set.
	TxOnly bool
}

// Kinds implements sim.Sink.
func (r *TraceRecorder) Kinds() sim.KindSet {
	return sim.KindsOf(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost)
}

// On implements sim.Sink.
func (r *TraceRecorder) On(ev sim.Event) {
	f := ev.Frame
	switch {
	case ev.Kind == sim.EvFrameTx:
		r.Events = append(r.Events, fmt.Sprintf("%d TX %s %s→%s", ev.Slot, f.Type, f.Src, f.Dst))
	case r.TxOnly:
	case ev.Kind == sim.EvRxOK:
		r.Events = append(r.Events, fmt.Sprintf("%d RX %s %s→%s @%d", ev.Slot, f.Type, f.Src, f.Dst, ev.Station))
	case ev.Kind == sim.EvRxLost:
		r.Events = append(r.Events, fmt.Sprintf("%d LOST %s %s→%s @%d", ev.Slot, f.Type, f.Src, f.Dst, ev.Station))
	}
}

// TxTypes returns the sequence of transmitted frame types, e.g.
// ["RTS","CTS","DATA"].
func (r *TraceRecorder) TxTypes() []string {
	var out []string
	for _, e := range r.Events {
		parts := strings.Fields(e)
		if len(parts) >= 3 && parts[1] == "TX" {
			out = append(out, parts[2])
		}
	}
	return out
}

// TxSeq renders TxTypes as a single space-joined string for golden
// comparisons.
func (r *TraceRecorder) TxSeq() string { return strings.Join(r.TxTypes(), " ") }

// Run bundles one configured simulation.
type Run struct {
	Engine    *sim.Engine
	Collector *metrics.Collector
	Trace     *TraceRecorder
	Script    *traffic.Script
	Topo      *topo.Topology
}

// Factory builds a MAC for a station.
type Factory func(node int, env *sim.Env) sim.MAC

// New builds a Run over the given points with every station using the
// factory. Extra configuration is applied through opts.
func New(pts []geom.Point, radius float64, factory Factory, opts ...Option) *Run {
	tp := topo.FromPoints(pts, radius)
	r := &Run{
		Collector: metrics.NewCollector(),
		Trace:     &TraceRecorder{},
		Script:    traffic.NewScript(),
		Topo:      tp,
	}
	cfg := sim.Config{Topo: tp, Sink: sim.Combine(r.Collector, r.Trace)}
	for _, o := range opts {
		o(&cfg)
	}
	r.Engine = sim.New(cfg)
	r.Engine.AttachMACs(func(node int, env *sim.Env) sim.MAC { return factory(node, env) })
	return r
}

// Option tweaks the engine configuration.
type Option func(*sim.Config)

// WithCapture installs a capture model.
func WithCapture(m interface {
	Name() string
	Probability(int) float64
	Resolve([]float64, float64) int
}) Option {
	return func(c *sim.Config) { c.Capture = m }
}

// WithSeed sets the engine seed.
func WithSeed(seed int64) Option {
	return func(c *sim.Config) { c.Seed = seed }
}

// WithErrRate sets the per-frame erasure probability.
func WithErrRate(p float64) Option {
	return func(c *sim.Config) { c.ErrRate = p }
}

// Multicast schedules a multicast request from src to dests at slot t
// with the given timeout in slots, returning it.
func (r *Run) Multicast(t sim.Slot, id int64, src int, dests []int, timeout int) *sim.Request {
	return r.Script.At(t, &sim.Request{
		ID: id, Kind: sim.Multicast, Src: src, Dests: dests,
		Deadline: t + sim.Slot(timeout),
	})
}

// Unicast schedules a unicast request.
func (r *Run) Unicast(t sim.Slot, id int64, src, dst int, timeout int) *sim.Request {
	return r.Script.At(t, &sim.Request{
		ID: id, Kind: sim.Unicast, Src: src, Dests: []int{dst},
		Deadline: t + sim.Slot(timeout),
	})
}

// Steps advances the simulation n slots, feeding the script.
func (r *Run) Steps(n int) { r.Engine.Run(n, r.Script) }

// Record returns the metrics record for the given message ID, or nil.
func (r *Run) Record(id int64) *metrics.Record {
	for _, rec := range r.Collector.Records() {
		if rec.ID == id {
			return rec
		}
	}
	return nil
}

// Star returns a sender at the center of the unit square surrounded by k
// receivers on a circle of the given radius fraction of the transmission
// radius r. Node 0 is the sender; 1..k the receivers.
func Star(k int, r, frac float64) []geom.Point {
	pts := []geom.Point{geom.Pt(0.5, 0.5)}
	for i := 0; i < k; i++ {
		th := 2 * math.Pi * float64(i) / float64(k)
		pts = append(pts, geom.Pt(0.5+frac*r*math.Cos(th), 0.5+frac*r*math.Sin(th)))
	}
	return pts
}

// Jammer is a scripted station that transmits pre-programmed frames at
// fixed slots regardless of carrier sense — a deterministic interferer
// for loss-injection tests. Install it with Engine.SetMAC over one of the
// protocol stations after building the Run.
type Jammer struct {
	sends map[sim.Slot]*frames.Frame
}

// NewJammer returns an empty Jammer.
func NewJammer() *Jammer { return &Jammer{sends: map[sim.Slot]*frames.Frame{}} }

// JamAt schedules a 1-slot control transmission at slot t.
func (j *Jammer) JamAt(t sim.Slot) *Jammer {
	j.sends[t] = &frames.Frame{Type: frames.CTS, Dst: frames.NoAddr, MsgID: -1}
	return j
}

// JamFrameAt schedules an arbitrary frame at slot t.
func (j *Jammer) JamFrameAt(t sim.Slot, f *frames.Frame) *Jammer {
	j.sends[t] = f
	return j
}

// JamDataAt schedules a full data-length transmission at slot t.
func (j *Jammer) JamDataAt(t sim.Slot) *Jammer {
	j.sends[t] = &frames.Frame{Type: frames.Data, Dst: frames.NoAddr, MsgID: -1}
	return j
}

// Tick implements sim.MAC.
func (j *Jammer) Tick(env *sim.Env) *frames.Frame { return j.sends[env.Now()] }

// Deliver implements sim.MAC.
func (j *Jammer) Deliver(env *sim.Env, f *frames.Frame) {}

// Submit implements sim.MAC.
func (j *Jammer) Submit(env *sim.Env, req *sim.Request) {}

// Feed drives a sink with hand-built events, one method per event kind,
// the way an engine would: each event reaches the sink only when its
// kind is in the sink's Kinds. It is the unit-test stand-in for a run.
type Feed struct {
	Sink sim.Sink
}

func (f Feed) emit(ev sim.Event) {
	if f.Sink.Kinds().Has(ev.Kind) {
		f.Sink.On(ev)
	}
}

func (f Feed) request(k sim.EventKind, req *sim.Request, now sim.Slot, a, b int) {
	f.emit(sim.Event{Kind: k, Slot: now, Station: req.Src, Req: req, A: a, B: b})
}

// Submit emits a submit event.
func (f Feed) Submit(req *sim.Request, now sim.Slot) { f.request(sim.EvSubmit, req, now, 0, 0) }

// Contention emits a contention event.
func (f Feed) Contention(req *sim.Request, now sim.Slot) {
	f.request(sim.EvContention, req, now, 0, 0)
}

// FrameTx emits a frame-tx event for a frame starting at now, with the
// default airtime of its type.
func (f Feed) FrameTx(fr *frames.Frame, sender int, now sim.Slot) {
	end := now + sim.Slot(frames.DefaultTiming().Airtime(fr.Type)) - 1
	f.emit(sim.Event{Kind: sim.EvFrameTx, Slot: now, Station: sender, Frame: fr, A: int(end)})
}

// DataRx emits a data-rx event: the receiver decoded the message's DATA.
func (f Feed) DataRx(msgID int64, receiver int, now sim.Slot) {
	fr := &frames.Frame{Type: frames.Data, MsgID: msgID}
	f.emit(sim.Event{Kind: sim.EvDataRx, Slot: now, Station: receiver, Frame: fr})
}

// Round emits a round event with the residual.
func (f Feed) Round(req *sim.Request, residual int, now sim.Slot) {
	f.request(sim.EvRound, req, now, residual, 0)
}

// Complete emits a complete event.
func (f Feed) Complete(req *sim.Request, now sim.Slot) { f.request(sim.EvComplete, req, now, 0, 0) }

// Abort emits an abort event with the reason.
func (f Feed) Abort(req *sim.Request, reason sim.AbortReason, now sim.Slot) {
	f.request(sim.EvAbort, req, now, int(reason), 0)
}

// ServiceStart emits a service-start event.
func (f Feed) ServiceStart(req *sim.Request, now sim.Slot) {
	f.request(sim.EvServiceStart, req, now, 0, 0)
}

// RoundStart emits a round-start event.
func (f Feed) RoundStart(req *sim.Request, round, polled int, now sim.Slot) {
	f.request(sim.EvRoundStart, req, now, round, polled)
}
