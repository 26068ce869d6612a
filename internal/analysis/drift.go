package analysis

import (
	"math"
	"sort"
)

// RoundModel selects which closed-form expectation a drift comparison
// holds a simulated run against.
type RoundModel int

const (
	// RoundModelBatch is the BMMM/LAMM/BSMA shape: one contention phase
	// serves every remaining receiver at once, so the expectation is the
	// fₙ recurrence (ExpectedRounds).
	RoundModelBatch RoundModel = iota
	// RoundModelPerReceiver is the BMW shape: one contention phase polls
	// a single receiver, so the expectation is n/p (BMWExpectedRounds).
	RoundModelPerReceiver
)

// String implements fmt.Stringer.
func (m RoundModel) String() string {
	if m == RoundModelPerReceiver {
		return "per-receiver"
	}
	return "batch"
}

// RoundModelFor maps a protocol name (the experiments.Protocol string)
// to its round model. Only BMW serves receivers one at a time; every
// other protocol in the study batches.
func RoundModelFor(protocol string) RoundModel {
	if protocol == "BMW" {
		return RoundModelPerReceiver
	}
	return RoundModelBatch
}

// GroupObs accumulates the completed messages of one group size.
type GroupObs struct {
	// Messages is the number of completed messages with this group size.
	Messages int64
	// Contentions is the total contention phases those messages burned.
	Contentions int64
}

// DriftAccum accumulates what a run actually did — per-round service
// counts (for the empirical per-round success probability p̂) and
// per-message contention-phase totals by group size — so Summary can
// hold it against the §6 closed forms. Feed it from a sim.Sink
// (obs.DriftMonitor); the accumulator itself is pure bookkeeping with no
// simulator dependency.
//
// Not safe for concurrent use; give each run its own accumulator and
// Merge afterwards.
type DriftAccum struct {
	Model RoundModel
	// Exposures and Served estimate p̂ = Served/Exposures. For the batch
	// model an exposure is one (receiver, round) pair — every remaining
	// receiver gets a fresh Bernoulli(p) trial per round, exactly the fₙ
	// assumption. For the per-receiver model an exposure is one round —
	// only the polled receiver is in play.
	Exposures, Served int64
	// Groups holds per-group-size observations, keyed by n.
	Groups map[int]*GroupObs
}

// NewDriftAccum returns an empty accumulator for the given model.
func NewDriftAccum(model RoundModel) *DriftAccum {
	return &DriftAccum{Model: model, Groups: make(map[int]*GroupObs)}
}

// AddRound records one completed protocol round that started with
// `before` unserved receivers and ended with `after`.
func (a *DriftAccum) AddRound(before, after int) {
	served := before - after
	if served < 0 {
		served = 0
	}
	switch a.Model {
	case RoundModelPerReceiver:
		a.Exposures++
		if served > 0 {
			a.Served++
		}
	default:
		a.Exposures += int64(before)
		a.Served += int64(served)
	}
}

// AddMessage records one completed message: group size n, total
// contention phases spent.
func (a *DriftAccum) AddMessage(n, contentions int) {
	g := a.Groups[n]
	if g == nil {
		g = &GroupObs{}
		a.Groups[n] = g
	}
	g.Messages++
	g.Contentions += int64(contentions)
}

// Merge folds another accumulator (same model) into this one.
func (a *DriftAccum) Merge(b *DriftAccum) {
	a.Exposures += b.Exposures
	a.Served += b.Served
	for n, g := range b.Groups {
		mine := a.Groups[n]
		if mine == nil {
			mine = &GroupObs{}
			a.Groups[n] = mine
		}
		mine.Messages += g.Messages
		mine.Contentions += g.Contentions
	}
}

// PHat returns the empirical per-round success probability. With no
// recorded rounds it returns 1 — the clean-channel degenerate under
// which every closed form collapses to its floor.
func (a *DriftAccum) PHat() float64 {
	if a.Exposures == 0 {
		return 1
	}
	return float64(a.Served) / float64(a.Exposures)
}

// DriftPoint is the observed-vs-expected comparison for one group size.
type DriftPoint struct {
	// N is the multicast group size.
	N int `json:"n"`
	// Messages is how many completed messages back the observation.
	Messages int64 `json:"messages"`
	// Observed is the mean contention phases per completed message.
	Observed float64 `json:"observed"`
	// Expected is the closed-form expectation at p̂.
	Expected float64 `json:"expected"`
	// RelErr is the signed relative error (Observed-Expected)/Expected.
	RelErr float64 `json:"rel_err"`
}

// DriftSummary is a full observed-vs-analysis comparison: one point per
// group size plus the message-weighted aggregate — the number the
// tolerance gate pins.
type DriftSummary struct {
	Model    string       `json:"model"`
	PHat     float64      `json:"p_hat"`
	Messages int64        `json:"messages"`
	Points   []DriftPoint `json:"points"`
	// WeightedRelErr is the signed relative error averaged over points,
	// weighted by message count (points with non-finite expectations are
	// excluded).
	WeightedRelErr float64 `json:"weighted_rel_err"`
}

// Summary compares the accumulated observations against the closed-form
// expectations at the empirical p̂.
func (a *DriftAccum) Summary() DriftSummary {
	p := a.PHat()
	s := DriftSummary{Model: a.Model.String(), PHat: p}
	ns := make([]int, 0, len(a.Groups))
	for n := range a.Groups {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	var wSum float64
	var wMsgs int64
	for _, n := range ns {
		g := a.Groups[n]
		pt := DriftPoint{
			N:        n,
			Messages: g.Messages,
			Observed: float64(g.Contentions) / float64(g.Messages),
		}
		switch a.Model {
		case RoundModelPerReceiver:
			pt.Expected = BMWExpectedRounds(n, p)
		default:
			pt.Expected = ExpectedRounds(n, p)
		}
		if math.IsInf(pt.Expected, 0) || pt.Expected == 0 {
			pt.RelErr = math.NaN()
		} else {
			pt.RelErr = (pt.Observed - pt.Expected) / pt.Expected
			wSum += pt.RelErr * float64(g.Messages)
			wMsgs += g.Messages
		}
		s.Messages += g.Messages
		s.Points = append(s.Points, pt)
	}
	if wMsgs > 0 {
		s.WeightedRelErr = wSum / float64(wMsgs)
	}
	return s
}
