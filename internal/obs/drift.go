package obs

import (
	"relmac/internal/analysis"
	"relmac/internal/sim"
)

// DriftMonitor is a sim.Sink that feeds an analysis.DriftAccum as
// the run unfolds, turning the engine's event stream into the
// observed-vs-closed-form comparison of §6: per-message contention-phase
// counts by group size, and per-round service counts for the empirical
// p̂. Call Summary after the run (or mid-run — the accumulator is always
// consistent between events).
//
// Aborted messages are censored: their contention phases are excluded
// from the per-group observations (the closed forms describe runs to
// completion), while their rounds still inform p̂ — channel quality is a
// property of the medium, not of the message's fate.
type DriftMonitor struct {
	accum    *analysis.DriftAccum
	inflight map[int64]*driftMsg
}

type driftMsg struct {
	n           int
	contentions int
	residual    int
}

// NewDriftMonitor builds a monitor comparing against the given round
// model (analysis.RoundModelFor maps protocol names).
func NewDriftMonitor(model analysis.RoundModel) *DriftMonitor {
	return &DriftMonitor{
		accum:    analysis.NewDriftAccum(model),
		inflight: make(map[int64]*driftMsg),
	}
}

// Accum exposes the underlying accumulator (for cross-run Merge).
func (d *DriftMonitor) Accum() *analysis.DriftAccum { return d.accum }

// Summary compares what the run did against the closed forms.
func (d *DriftMonitor) Summary() analysis.DriftSummary { return d.accum.Summary() }

// Kinds implements sim.Sink.
func (d *DriftMonitor) Kinds() sim.KindSet {
	return sim.KindsOf(sim.EvSubmit, sim.EvContention, sim.EvRound, sim.EvComplete, sim.EvAbort)
}

// On implements sim.Sink.
func (d *DriftMonitor) On(ev sim.Event) {
	req := ev.Req
	switch ev.Kind {
	case sim.EvSubmit:
		if n := len(req.Dests); n > 0 {
			d.inflight[req.ID] = &driftMsg{n: n, residual: n}
		}
	case sim.EvContention:
		if m := d.inflight[req.ID]; m != nil {
			m.contentions++
		}
	case sim.EvRound:
		if m := d.inflight[req.ID]; m != nil {
			d.accum.AddRound(m.residual, ev.A)
			m.residual = ev.A
		}
	case sim.EvComplete:
		if m := d.inflight[req.ID]; m != nil {
			d.accum.AddMessage(m.n, m.contentions)
			delete(d.inflight, req.ID)
		}
	case sim.EvAbort:
		delete(d.inflight, req.ID)
	}
}
