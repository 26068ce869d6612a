package obs

import (
	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Default histogram shapes: contention phases are small integers (the
// paper's Figure 9 tops out near 5), completion times are bounded by the
// upper-layer timeout (Table 2: 100 slots; Figure 7 sweeps to 300).
var (
	// DefaultContentionBounds buckets per-message contention-phase counts.
	DefaultContentionBounds = []float64{1, 2, 3, 4, 5, 7, 10, 15, 25, 50}
	// DefaultCompletionBounds buckets arrival→completion times in slots.
	DefaultCompletionBounds = LinearBuckets(10, 10, 30) // 10..300 by 10
	// DefaultResidualBounds buckets per-round (and per-abort) residual
	// receiver counts; a multicast group is at most the node degree, so
	// the shape follows the degree scale of the default topologies.
	DefaultResidualBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}
)

// Stats is a sim.Sink that feeds a Registry as the run unfolds: one
// counter per protocol-level event, one counter per frame type transmitted,
// and per-message histograms of contention phases and completion time.
// The MAC layers feed it indirectly — contention/complete/abort events
// originate inside the protocol state machines via Env.Report*.
//
// Names are "<prefix>.<stat>", so per-protocol instances share one
// registry without colliding ("BMMM.frames.RTS", "LAMM.completion_slots").
type Stats struct {
	submits, contentions, dataRx, completes, aborts *Counter
	abortReasons                                    [sim.NumAbortReasons]*Counter
	rounds                                          *Counter
	frameTx                                         [frames.NumTypes]*Counter
	contHist, compHist, residHist                   *Histogram

	inflight map[int64]*msgProgress
}

type msgProgress struct {
	arrival     sim.Slot
	contentions int
}

// NewStats builds a Stats sink registering its instruments under
// prefix in reg.
func NewStats(reg *Registry, prefix string) *Stats {
	s := &Stats{
		submits:     reg.Counter(prefix + ".submits"),
		contentions: reg.Counter(prefix + ".contentions"),
		dataRx:      reg.Counter(prefix + ".data_rx"),
		completes:   reg.Counter(prefix + ".completes"),
		aborts:      reg.Counter(prefix + ".aborts"),
		rounds:      reg.Counter(prefix + ".rounds"),
		contHist:    reg.Histogram(prefix+".contention_phases", DefaultContentionBounds...),
		compHist:    reg.Histogram(prefix+".completion_slots", DefaultCompletionBounds...),
		residHist:   reg.Histogram(prefix+".round_residual", DefaultResidualBounds...),
		inflight:    make(map[int64]*msgProgress),
	}
	for r := range s.abortReasons {
		s.abortReasons[r] = reg.Counter(prefix + ".aborts." + sim.AbortReason(r).String())
	}
	for _, t := range frames.Types() {
		s.frameTx[t] = reg.Counter(prefix + ".frames." + t.String())
	}
	return s
}

// Kinds implements sim.Sink: the seven protocol-level kinds.
func (s *Stats) Kinds() sim.KindSet { return sim.ProtocolKinds }

// On implements sim.Sink.
func (s *Stats) On(ev sim.Event) {
	switch ev.Kind {
	case sim.EvSubmit:
		s.submits.Inc()
		s.inflight[ev.Req.ID] = &msgProgress{arrival: ev.Req.Arrival}
	case sim.EvContention:
		s.contentions.Inc()
		if p := s.inflight[ev.Req.ID]; p != nil {
			p.contentions++
		}
	case sim.EvFrameTx:
		if t := ev.Frame.Type; int(t) < len(s.frameTx) {
			s.frameTx[t].Inc()
		}
	case sim.EvDataRx:
		s.dataRx.Inc()
	case sim.EvComplete:
		s.completes.Inc()
		if p := s.inflight[ev.Req.ID]; p != nil {
			s.contHist.Observe(float64(p.contentions))
			s.compHist.Observe(float64(ev.Slot - p.arrival))
			delete(s.inflight, ev.Req.ID)
		}
	case sim.EvRound:
		s.rounds.Inc()
		s.residHist.Observe(float64(ev.A))
	case sim.EvAbort:
		s.aborts.Inc()
		if r := ev.Reason(); int(r) < len(s.abortReasons) {
			s.abortReasons[r].Inc()
		}
		if p := s.inflight[ev.Req.ID]; p != nil {
			s.contHist.Observe(float64(p.contentions))
			delete(s.inflight, ev.Req.ID)
		}
	}
}
