// Package metrics records per-message outcomes during a simulation run
// and computes the quantities the paper's evaluation reports (§7):
//
//   - successful delivery rate — the fraction of requests that reached at
//     least the reliability threshold of their intended receivers before
//     timing out (Figures 6, 7, 8);
//   - average number of contention phases per message (Figure 9);
//   - average message completion time (Figure 10).
//
// A Collector is a sim.Sink attached to one engine run; cross-run
// aggregation lives in the stats helpers.
package metrics

import (
	"relmac/internal/frames"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// Record captures the lifecycle of one MAC service request.
type Record struct {
	// ID, Kind, Src and Intended mirror the request.
	ID       int64
	Kind     sim.Kind
	Src      int
	Intended int
	// Arrival and Deadline are the request's MAC arrival slot and upper
	// layer timeout.
	Arrival  sim.Slot
	Deadline sim.Slot
	// Contentions counts CSMA/CA contention phases spent on the message.
	Contentions int
	// Completed is set when the sending MAC reported success, at slot
	// CompletedAt. Note that for an unreliable protocol "completed" only
	// means the sender finished its procedure — BSMA can complete
	// without reaching anyone (paper §7.3).
	Completed   bool
	CompletedAt sim.Slot
	// Aborted is set when the sender gave up; AbortReason records which
	// budget ran out (deadline vs retry exhaustion) and is meaningful
	// only when Aborted.
	Aborted     bool
	AbortReason sim.AbortReason
	// Rounds counts completed group-protocol rounds (BMMM/LAMM batch
	// rounds, BMW per-receiver rounds); Residual is the intended
	// receivers still unserved after the last completed round.
	Rounds   int
	Residual int
	// Delivered counts distinct intended receivers that decoded the DATA
	// frame.
	Delivered int
	// intended lists the intended receivers; delivered marks, per entry,
	// whether that receiver decoded the data frame. Parallel slices beat
	// maps here: intended sets are neighborhood-sized, and the collector
	// creates two of these per message on the simulation hot path.
	intended  []int
	delivered []bool
}

// DeliveredFraction returns the fraction of intended receivers reached.
// A request with no intended receivers counts as fully delivered.
func (r *Record) DeliveredFraction() float64 {
	if r.Intended == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Intended)
}

// Successful applies the paper's success criterion at the given
// reliability threshold: the message must have been completed by the
// sender no later than its deadline and must have reached at least
// threshold of its intended receivers.
func (r *Record) Successful(threshold float64) bool {
	if !r.Completed || r.CompletedAt > r.Deadline {
		return false
	}
	return r.DeliveredFraction() >= threshold-1e-12
}

// CompletionTime returns the slots from MAC arrival to sender completion;
// meaningful only when Completed.
func (r *Record) CompletionTime() sim.Slot { return r.CompletedAt - r.Arrival }

// Collector is a sim.Sink accumulating Records from the seven
// protocol-level event kinds; it never asks for per-slot or
// per-reception events.
type Collector struct {
	records []*Record
	byID    map[int64]*Record
	frames  [frames.NumTypes]int64 // indexed by frames.Type
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{byID: make(map[int64]*Record)}
}

// Kinds implements sim.Sink: the seven protocol-level kinds.
func (c *Collector) Kinds() sim.KindSet { return sim.ProtocolKinds }

// On implements sim.Sink.
func (c *Collector) On(ev sim.Event) {
	switch ev.Kind {
	case sim.EvSubmit:
		req := ev.Req
		r := &Record{
			ID:        req.ID,
			Kind:      req.Kind,
			Src:       req.Src,
			Intended:  len(req.Dests),
			Arrival:   req.Arrival,
			Deadline:  req.Deadline,
			intended:  append([]int(nil), req.Dests...),
			delivered: make([]bool, len(req.Dests)),
		}
		c.records = append(c.records, r)
		c.byID[req.ID] = r
	case sim.EvFrameTx:
		if t := ev.Frame.Type; int(t) < len(c.frames) {
			c.frames[t]++
		}
	case sim.EvDataRx:
		c.dataRx(ev.Frame.MsgID, ev.Station)
	default:
		r := c.byID[ev.Req.ID]
		if r == nil {
			return
		}
		switch ev.Kind {
		case sim.EvContention:
			r.Contentions++
		case sim.EvRound:
			r.Rounds++
			r.Residual = ev.A
		case sim.EvComplete:
			if !r.Completed {
				r.Completed = true
				r.CompletedAt = ev.Slot
			}
		case sim.EvAbort:
			r.Aborted = true
			r.AbortReason = ev.Reason()
		}
	}
}

// dataRx marks the receiver's first decode of the message's DATA.
func (c *Collector) dataRx(msgID int64, receiver int) {
	r := c.byID[msgID]
	if r == nil {
		return
	}
	for k, id := range r.intended {
		if id == receiver {
			if !r.delivered[k] {
				r.delivered[k] = true
				r.Delivered++
			}
			return
		}
	}
}

// Records returns all records in submission order.
func (c *Collector) Records() []*Record { return c.records }

// FrameCount returns the number of frames of the given type transmitted.
func (c *Collector) FrameCount(t frames.Type) int64 {
	if int(t) < len(c.frames) {
		return c.frames[t]
	}
	return 0
}

// FeedRegistry exports the collector's accumulated state into the stat
// registry under the given prefix (typically the protocol name):
// counters <prefix>.messages / .completed / .aborted (with per-reason
// splits .aborted.deadline / .aborted.retries), .rounds and
// <prefix>.frames.<TYPE>, plus <prefix>.contention_phases,
// <prefix>.completion_slots and — over aborted messages — the
// <prefix>.residual_receivers graceful-degradation histogram (how many
// intended receivers an abandoned message left unserved). Calling it
// once per finished run aggregates multiple runs into the same
// instruments.
func (c *Collector) FeedRegistry(reg *obs.Registry, prefix string) {
	messages := reg.Counter(prefix + ".messages")
	completed := reg.Counter(prefix + ".completed")
	aborted := reg.Counter(prefix + ".aborted")
	rounds := reg.Counter(prefix + ".rounds")
	contHist := reg.Histogram(prefix+".contention_phases", obs.DefaultContentionBounds...)
	compHist := reg.Histogram(prefix+".completion_slots", obs.DefaultCompletionBounds...)
	residHist := reg.Histogram(prefix+".residual_receivers", obs.DefaultResidualBounds...)
	for _, r := range c.records {
		messages.Inc()
		contHist.Observe(float64(r.Contentions))
		rounds.Add(int64(r.Rounds))
		if r.Completed {
			completed.Inc()
			compHist.Observe(float64(r.CompletionTime()))
		}
		if r.Aborted {
			aborted.Inc()
			reg.Counter(prefix + ".aborted." + r.AbortReason.String()).Inc()
			residHist.Observe(float64(r.Intended - r.Delivered))
		}
	}
	for _, t := range frames.Types() {
		if n := c.frames[t]; n > 0 {
			reg.Counter(prefix + ".frames." + t.String()).Add(n)
		}
	}
}

// Filter selects which records enter a Summary.
type Filter struct {
	// Kinds restricts to the given kinds; empty means all.
	Kinds []sim.Kind
	// Horizon excludes messages whose deadline lies beyond the end of
	// the simulated window, so partially-observed messages don't bias
	// the statistics. Zero disables the cut.
	Horizon sim.Slot
}

func (f Filter) match(r *Record) bool {
	if f.Horizon > 0 && r.Deadline > f.Horizon {
		return false
	}
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// GroupFilter selects the multicast-style traffic the paper's figures
// measure (multicast and broadcast requests), cut at the horizon.
func GroupFilter(horizon sim.Slot) Filter {
	return Filter{Kinds: []sim.Kind{sim.Multicast, sim.Broadcast}, Horizon: horizon}
}

// Summary aggregates one run's records.
type Summary struct {
	// Messages is the number of records matching the filter.
	Messages int
	// SuccessRate is the paper's successful delivery rate at the chosen
	// reliability threshold.
	SuccessRate float64
	// AvgContentions is the mean number of contention phases per
	// message (Figure 9's y axis).
	AvgContentions float64
	// AvgCompletionTime is the mean slots from arrival to sender
	// completion over completed messages (Figure 10's y axis).
	AvgCompletionTime float64
	// CompletedCount is the number of sender-completed messages.
	CompletedCount int
	// MeanDeliveredFraction is the mean fraction of intended receivers
	// reached, regardless of threshold.
	MeanDeliveredFraction float64
}

// Summarize computes a Summary at the given reliability threshold over
// the records selected by the filter.
func (c *Collector) Summarize(threshold float64, f Filter) Summary {
	var s Summary
	var contentions, compTime, delivered float64
	for _, r := range c.records {
		if !f.match(r) {
			continue
		}
		s.Messages++
		contentions += float64(r.Contentions)
		delivered += r.DeliveredFraction()
		if r.Successful(threshold) {
			s.SuccessRate++
		}
		if r.Completed {
			s.CompletedCount++
			compTime += float64(r.CompletionTime())
		}
	}
	if s.Messages > 0 {
		s.SuccessRate /= float64(s.Messages)
		s.AvgContentions = contentions / float64(s.Messages)
		s.MeanDeliveredFraction = delivered / float64(s.Messages)
	}
	if s.CompletedCount > 0 {
		s.AvgCompletionTime = compTime / float64(s.CompletedCount)
	}
	return s
}
