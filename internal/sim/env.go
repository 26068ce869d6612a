package sim

import (
	"math/rand"

	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/topo"
)

// EnvOf returns the Env of the given station. It exists for tests that
// need to drive MAC components outside a full simulation; protocol code
// receives its Env through the MAC callbacks.
func (e *Engine) EnvOf(node int) *Env { return &e.envs[node] }

// Env is the window through which a MAC state machine observes and
// reports to the simulation. One Env exists per station; the engine
// passes a pointer to it into every MAC callback. Envs must not be
// retained across simulations.
type Env struct {
	engine *Engine
	node   int
}

// Node returns the station ID this Env belongs to.
func (e *Env) Node() int { return e.node }

// Now returns the current slot.
func (e *Env) Now() Slot { return e.engine.now }

// Timing returns the frame airtimes in use.
func (e *Env) Timing() frames.Timing { return e.engine.timing }

// Topo returns the network topology (positions, neighbor tables). The
// paper assumes stations know their neighbors through beacon exchange and,
// for LAMM, their locations via GPS-carrying beacons; exposing the
// topology snapshot models exactly that knowledge.
func (e *Env) Topo() *topo.Topology { return e.engine.topo }

// Neighbors returns the station's neighbor IDs (shared slice; read only).
func (e *Env) Neighbors() []int { return e.engine.topo.Neighbors(e.node) }

// Pos returns the station's own location.
func (e *Env) Pos() geom.Point { return e.engine.topo.Pos(e.node) }

// CarrierBusy reports whether the station's physical carrier sense finds
// the medium busy: some other station's transmission that began in an
// earlier slot is still in the air within range.
func (e *Env) CarrierBusy() bool { return e.engine.carrierBusy(e.node) }

// Transmitting reports whether the station's own transmission is still in
// the air in the current slot.
func (e *Env) Transmitting() bool {
	return e.engine.txBusyUntil[e.node] >= e.engine.now
}

// Rand returns the simulation PRNG. MAC callbacks run sequentially in
// station order, so sharing the engine PRNG keeps runs reproducible.
func (e *Env) Rand() *rand.Rand { return e.engine.rng }

// Wants reports whether an attached sink wants events of the kind. MAC
// code whose reporting needs setup beyond a plain Report call (the
// Responder's stale-drop accounting) checks it first, so the path with
// no such sink stays exactly the code without the report.
func (e *Env) Wants(k EventKind) bool { return e.engine.wants.Has(k) }

// report emits a request event of the kind at the current slot, when a
// sink wants it.
func (e *Env) report(k EventKind, req *Request, a, b int) {
	if eng := e.engine; eng.wants.Has(k) {
		eng.sink.On(Event{Kind: k, Slot: eng.now, Station: req.Src, Req: req, A: a, B: b})
	}
}

// ReportContention emits a contention event: the station is entering a
// CSMA/CA contention phase for the request — the quantity plotted in
// Figure 9 and analysed in §6.
func (e *Env) ReportContention(req *Request) { e.report(EvContention, req, 0, 0) }

// ReportComplete emits a complete event: the sending MAC considers the
// request served.
func (e *Env) ReportComplete(req *Request) { e.report(EvComplete, req, 0, 0) }

// ReportAbort emits an abort event: the sending MAC abandoned the
// request, for the typed reason (deadline passed or retry budget
// exhausted).
func (e *Env) ReportAbort(req *Request, reason AbortReason) {
	e.report(EvAbort, req, int(reason), 0)
}

// ReportRound emits a round event: a multi-round group protocol
// finished one round with residual intended receivers still unserved —
// the per-round graceful-degradation signal: under an impaired channel
// the residual shrinks more slowly (or not at all) and the round count
// grows.
func (e *Env) ReportRound(req *Request, residual int) { e.report(EvRound, req, residual, 0) }

// ReportServiceStart emits a service-start event: the station dequeued
// the request into service — the queueing/service boundary of the
// flight recorder's span tree.
func (e *Env) ReportServiceStart(req *Request) { e.report(EvServiceStart, req, 0, 0) }

// ReportRoundStart emits a round-start event: a group protocol is
// opening a round, round its 1-based ordinal and polled the number of
// receivers it will poll.
func (e *Env) ReportRoundStart(req *Request, round, polled int) {
	e.report(EvRoundStart, req, round, polled)
}

// ReportResponseDrop emits a response-drop event: this station
// discarded a stale scheduled response.
func (e *Env) ReportResponseDrop(f *frames.Frame) {
	if eng := e.engine; eng.wants.Has(EvResponseDrop) {
		eng.sink.On(Event{Kind: EvResponseDrop, Slot: eng.now, Station: e.node, Frame: f})
	}
}
