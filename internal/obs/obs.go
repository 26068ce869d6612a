// Package obs is the simulation observability layer: consumers of the
// engine's one event stream (sim.Event) that turn a run into traces,
// counters, airtime breakdowns, span trees and conformance findings.
//
// The simulator's evaluation questions — where do slots go? how many
// contention phases does a message burn? how long does a BMMM batch
// hold the medium? — all require seeing *inside* a run, not just the
// final aggregates. Every consumer here is one sim.Sink that names the
// kinds it wants and handles them in one On switch:
//
//   - Tracer records the protocol-level events (submit, contention,
//     frame-tx, data-rx, round, complete, abort) into a bounded ring
//     buffer, exportable as JSONL or as Chrome trace-event JSON (one
//     "thread" per station) loadable at https://ui.perfetto.dev;
//   - Stats feeds a Registry of cheap named counters and fixed-bucket
//     histograms as the run unfolds (metrics.Collector.FeedRegistry
//     fills the same registry post-run from the per-message records);
//   - Ledger attributes every slot to exactly one airtime category;
//   - DriftMonitor compares the run against the §6 closed forms;
//   - Flight assembles per-message span trees;
//   - Auditor checks every exchange against its protocol's grammar.
//
// Attach any combination, each consumer once, with sim.Combine (or
// experiments.RunConfig.Sinks). Kinds no attached consumer wants cost
// the engine one bit test per emission site.
package obs

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Event is one structured trace record. Kind is one of the seven
// protocol-level kinds (sim.ProtocolKinds); its String form is the
// JSONL "event" field. Station is the acting station: the sender for
// submit/contention/frame-tx/round/complete/abort, the receiver for
// data-rx. Frame, Src, Dst and Dur are meaningful only for frame-tx (Dur
// is the frame's airtime in slots); Residual only for round (intended
// receivers still unserved after the round); Reason only for abort.
type Event struct {
	Kind     sim.EventKind
	Slot     sim.Slot
	Station  int
	MsgID    int64
	Frame    frames.Type
	Src      frames.Addr
	Dst      frames.Addr
	Dur      int
	Residual int
	Reason   sim.AbortReason
}
