package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"relmac/internal/experiments"
	"relmac/internal/frames"
	"relmac/internal/metrics"
)

// outcome is one run's result, reduced to what the benchmark checks and
// reports.
type outcome struct {
	point, proto int
	sum          metrics.Summary
	aborted      int64 // messages the MAC gave up on
	framesTx     int64 // frames of every type put on the air
	dataFrames   int64
	err          error
}

func outcomeOf(point, proto int, sum metrics.Summary, col *metrics.Collector) outcome {
	o := outcome{point: point, proto: proto, sum: sum}
	for _, r := range col.Records() {
		if r.Aborted {
			o.aborted++
		}
	}
	for _, t := range frames.Types() {
		o.framesTx += col.FrameCount(t)
	}
	o.dataFrames = col.FrameCount(frames.Data)
	return o
}

func runOutcome(j job, res experiments.RunResult, err error) outcome {
	if err != nil || res.Collector == nil {
		return outcome{point: j.point, proto: j.proto, err: fmt.Errorf("run %s n=%d seed=%d: %v", j.cfg.Protocol, j.cfg.Nodes, j.cfg.Seed, err)}
	}
	return outcomeOf(j.point, j.proto, res.Summary, res.Collector)
}

// sane reports why a run's output is not a plausible Summary, or nil.
func (o outcome) sane() error {
	s := o.sum
	switch {
	case o.err != nil:
		return o.err
	case s.Messages < 1:
		return fmt.Errorf("no group messages")
	case s.SuccessRate < 0 || s.SuccessRate > 1:
		return fmt.Errorf("success rate %v outside [0,1]", s.SuccessRate)
	case s.MeanDeliveredFraction < 0 || s.MeanDeliveredFraction > 1:
		return fmt.Errorf("delivered fraction %v outside [0,1]", s.MeanDeliveredFraction)
	case s.CompletedCount > s.Messages:
		return fmt.Errorf("%d completed of %d messages", s.CompletedCount, s.Messages)
	case s.AvgContentions < 0 || s.AvgCompletionTime < 0:
		return fmt.Errorf("negative contentions or completion time")
	}
	return nil
}

// protoMeans are one protocol's means over its runs of a batch.
type protoMeans struct{ success, contentions float64 }

// tally aggregates a batch's outcomes. Sums run over the outcomes in a
// canonical order, so equal multisets of runs give bit-equal tallies
// whatever order the runs finished in.
type tally struct {
	runs int
	// The paper's three metrics, means over runs (Figures 6, 9, 10).
	deliveryRate, contentionsPerMsg, completionSlots float64
	// Work counts.
	messages, contentions, aborted, framesTx, dataFrames int64
	perProto                                             []protoMeans
}

func lessOutcome(x, y *outcome) bool {
	a := []float64{float64(x.point), float64(x.proto), float64(x.sum.Messages), float64(x.sum.CompletedCount),
		x.sum.SuccessRate, x.sum.AvgContentions, x.sum.AvgCompletionTime, x.sum.MeanDeliveredFraction,
		float64(x.aborted), float64(x.framesTx)}
	b := []float64{float64(y.point), float64(y.proto), float64(y.sum.Messages), float64(y.sum.CompletedCount),
		y.sum.SuccessRate, y.sum.AvgContentions, y.sum.AvgCompletionTime, y.sum.MeanDeliveredFraction,
		float64(y.aborted), float64(y.framesTx)}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func tallyOf(outs []outcome, protocols int) tally {
	sorted := append([]outcome(nil), outs...)
	sort.Slice(sorted, func(a, b int) bool { return lessOutcome(&sorted[a], &sorted[b]) })
	t := tally{perProto: make([]protoMeans, protocols)}
	var completed int
	perRuns := make([]int, protocols)
	for _, o := range sorted {
		s := o.sum
		if o.err != nil || s.Messages == 0 {
			continue
		}
		t.runs++
		t.deliveryRate += s.SuccessRate
		t.contentionsPerMsg += s.AvgContentions
		if s.CompletedCount > 0 {
			t.completionSlots += s.AvgCompletionTime
			completed++
		}
		t.messages += int64(s.Messages)
		t.contentions += int64(math.Round(s.AvgContentions * float64(s.Messages)))
		t.aborted += o.aborted
		t.framesTx += o.framesTx
		t.dataFrames += o.dataFrames
		t.perProto[o.proto].success += s.SuccessRate
		t.perProto[o.proto].contentions += s.AvgContentions
		perRuns[o.proto]++
	}
	if t.runs > 0 {
		t.deliveryRate /= float64(t.runs)
		t.contentionsPerMsg /= float64(t.runs)
	}
	if completed > 0 {
		t.completionSlots /= float64(completed)
	}
	for p, n := range perRuns {
		if n > 0 {
			t.perProto[p].success /= float64(n)
			t.perProto[p].contentions /= float64(n)
		}
	}
	return t
}

// equal reports whether two tallies agree bit for bit.
func (t tally) equal(u tally) bool { return reflect.DeepEqual(t, u) }

// verdict counts failed runs against runs attempted and collects the
// batch-level problems found.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) problem(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) correct() bool { return v.failed == 0 && len(v.problems) == 0 }

// checkRuns counts every run and fails the ones whose output is not sane.
func (v *verdict) checkRuns(w workload, outs []outcome) {
	v.attempted += len(outs)
	for _, o := range outs {
		if err := o.sane(); err != nil {
			v.failed++
			v.problem("%s: %s point %d: %v", w.name, w.protocols[o.proto], o.point, err)
		}
	}
}

// checkOrdering requires the orderings TestPaperOrderingHolds pins.
func (v *verdict) checkOrdering(w workload, t tally) {
	if !w.ordering {
		return
	}
	m := func(p experiments.Protocol) protoMeans { return t.perProto[w.protoIndex(p)] }
	lamm, bsma, bmw, bmmm := m(experiments.LAMM), m(experiments.BSMA), m(experiments.BMW), m(experiments.BMMM)
	if !(lamm.success > bsma.success && lamm.success > bmw.success) {
		v.problem("%s: LAMM delivery %.4f must beat BSMA %.4f and BMW %.4f", w.name, lamm.success, bsma.success, bmw.success)
	}
	if !(bmmm.success > bsma.success) {
		v.problem("%s: BMMM delivery %.4f must beat BSMA %.4f", w.name, bmmm.success, bsma.success)
	}
	if !(bmw.contentions > bmmm.contentions && bmw.contentions > lamm.contentions) {
		v.problem("%s: BMW contentions %.3f must exceed BMMM %.3f and LAMM %.3f", w.name, bmw.contentions, bmmm.contentions, lamm.contentions)
	}
}
