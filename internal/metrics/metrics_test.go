package metrics_test

import (
	"math"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/frames"
	"relmac/internal/metrics"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

func submit(c *metrics.Collector, id int64, kind sim.Kind, dests []int, arrival, deadline sim.Slot) *sim.Request {
	req := &sim.Request{ID: id, Kind: kind, Src: 0, Dests: dests, Arrival: arrival, Deadline: deadline}
	prototest.Feed{Sink: c}.Submit(req, arrival)
	return req
}

func TestRecordLifecycle(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	req := submit(c, 1, sim.Multicast, []int{1, 2, 3, 4}, 10, 110)
	in.Contention(req, 11)
	in.Contention(req, 30)
	in.DataRx(1, 1, 40)
	in.DataRx(1, 2, 40)
	in.DataRx(1, 2, 41) // duplicate must not double count
	in.DataRx(1, 3, 42)
	in.Complete(req, 60)

	r := c.Records()[0]
	if r.Contentions != 2 {
		t.Errorf("contentions = %d", r.Contentions)
	}
	if r.Delivered != 3 {
		t.Errorf("delivered = %d", r.Delivered)
	}
	if !almost(r.DeliveredFraction(), 0.75) {
		t.Errorf("fraction = %v", r.DeliveredFraction())
	}
	if !r.Completed || r.CompletedAt != 60 {
		t.Error("completion not recorded")
	}
	if r.CompletionTime() != 50 {
		t.Errorf("completion time = %d", r.CompletionTime())
	}
	if !r.Successful(0.75) {
		t.Error("75% delivered must succeed at threshold 0.75")
	}
	if r.Successful(0.9) {
		t.Error("75% delivered must fail at threshold 0.9")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSuccessRequiresTimelyCompletion(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	req := submit(c, 1, sim.Broadcast, []int{1}, 0, 100)
	in.DataRx(1, 1, 50)
	in.Complete(req, 150) // after deadline
	if c.Records()[0].Successful(0.5) {
		t.Error("completion after the deadline is a timeout, not a success")
	}

	c2 := metrics.NewCollector()
	in2 := prototest.Feed{Sink: c2}
	submit(c2, 2, sim.Broadcast, []int{1}, 0, 100)
	in2.DataRx(2, 1, 50)
	// Never completed (e.g. still retrying at sim end).
	if c2.Records()[0].Successful(0.5) {
		t.Error("uncompleted message cannot be successful")
	}
}

func TestBSMAStyleFalseCompletion(t *testing.T) {
	// Sender believes it completed, but nobody received the data: the
	// delivery rate at any positive threshold must be 0 (paper §7.3).
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	req := submit(c, 1, sim.Multicast, []int{1, 2}, 0, 100)
	in.Complete(req, 20)
	s := c.Summarize(0.9, metrics.Filter{})
	if s.SuccessRate != 0 {
		t.Errorf("success rate = %v, want 0", s.SuccessRate)
	}
	if s.CompletedCount != 1 {
		t.Error("sender completion must still be counted as completed")
	}
}

func TestEmptyDestsCountsDelivered(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	req := submit(c, 1, sim.Multicast, nil, 0, 100)
	in.Complete(req, 5)
	if !c.Records()[0].Successful(1.0) {
		t.Error("no intended receivers: trivially successful")
	}
}

func TestSummarizeFilters(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	// Multicast, in horizon, successful.
	r1 := submit(c, 1, sim.Multicast, []int{1}, 0, 100)
	in.DataRx(1, 1, 10)
	in.Complete(r1, 15)
	// Unicast (excluded by metrics.GroupFilter).
	r2 := submit(c, 2, sim.Unicast, []int{2}, 0, 100)
	in.DataRx(2, 2, 12)
	in.Complete(r2, 14)
	// Broadcast whose deadline exceeds the horizon (excluded).
	submit(c, 3, sim.Broadcast, []int{1, 2}, 9950, 10050)

	s := c.Summarize(0.9, metrics.GroupFilter(10000))
	if s.Messages != 1 {
		t.Fatalf("messages = %d, want only the in-horizon multicast", s.Messages)
	}
	if s.SuccessRate != 1 {
		t.Errorf("success rate = %v", s.SuccessRate)
	}

	all := c.Summarize(0.9, metrics.Filter{})
	if all.Messages != 3 {
		t.Errorf("unfiltered messages = %d", all.Messages)
	}
}

func TestSummarizeAverages(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	a := submit(c, 1, sim.Multicast, []int{1, 2}, 0, 200)
	in.Contention(a, 1)
	in.Contention(a, 2)
	in.Contention(a, 3)
	in.DataRx(1, 1, 10)
	in.DataRx(1, 2, 10)
	in.Complete(a, 20)

	b := submit(c, 2, sim.Multicast, []int{3, 4}, 10, 210)
	in.Contention(b, 11)
	in.DataRx(2, 3, 40)
	in.Complete(b, 50)

	s := c.Summarize(0.9, metrics.Filter{})
	if !almost(s.AvgContentions, 2) {
		t.Errorf("avg contentions = %v, want 2", s.AvgContentions)
	}
	if !almost(s.AvgCompletionTime, 30) { // (20-0 + 50-10)/2
		t.Errorf("avg completion time = %v, want 30", s.AvgCompletionTime)
	}
	if !almost(s.MeanDeliveredFraction, 0.75) {
		t.Errorf("mean delivered fraction = %v", s.MeanDeliveredFraction)
	}
	if !almost(s.SuccessRate, 0.5) {
		t.Errorf("success = %v, want 0.5 at threshold 0.9", s.SuccessRate)
	}
}

func TestFrameCounting(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	in.FrameTx(&frames.Frame{Type: frames.RTS}, 0, 0)
	in.FrameTx(&frames.Frame{Type: frames.RTS}, 1, 0)
	in.FrameTx(&frames.Frame{Type: frames.RAK}, 0, 5)
	if c.FrameCount(frames.RTS) != 2 || c.FrameCount(frames.RAK) != 1 || c.FrameCount(frames.NAK) != 0 {
		t.Error("frame counts wrong")
	}
}

func TestAbortRecorded(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	req := submit(c, 1, sim.Multicast, []int{1}, 0, 100)
	in.Round(req, 1, 50)
	in.Abort(req, sim.AbortRetries, 101)
	rec := c.Records()[0]
	if !rec.Aborted {
		t.Error("abort not recorded")
	}
	if rec.AbortReason != sim.AbortRetries {
		t.Errorf("abort reason = %v, want retries", rec.AbortReason)
	}
	if rec.Rounds != 1 || rec.Residual != 1 {
		t.Errorf("rounds=%d residual=%d, want 1/1", rec.Rounds, rec.Residual)
	}
	if rec.Successful(0.5) {
		t.Error("aborted message cannot be successful")
	}
}

func TestUnknownIDsIgnored(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	// Events for never-submitted IDs must not crash or create records.
	in.DataRx(99, 1, 5)
	in.Contention(&sim.Request{ID: 98}, 5)
	in.Complete(&sim.Request{ID: 97}, 5)
	in.Abort(&sim.Request{ID: 96}, sim.AbortDeadline, 5)
	in.Round(&sim.Request{ID: 95}, 2, 5)
	if len(c.Records()) != 0 {
		t.Error("phantom records created")
	}
}

func TestSampleStats(t *testing.T) {
	var s metrics.Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Error("empty sample must report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Known dataset: population σ = 2, sample σ = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s.StdDev(), want)
	}
	if s.CI95() <= 0 {
		t.Error("CI95 must be positive for n≥2")
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSummaryStatsAggregation(t *testing.T) {
	var agg metrics.SummaryStats
	agg.Add(metrics.Summary{}) // empty run skipped
	agg.Add(metrics.Summary{Messages: 10, SuccessRate: 0.8, AvgContentions: 2, CompletedCount: 8, AvgCompletionTime: 40, MeanDeliveredFraction: 0.9})
	agg.Add(metrics.Summary{Messages: 10, SuccessRate: 0.6, AvgContentions: 4, CompletedCount: 0, MeanDeliveredFraction: 0.7})
	if agg.Messages != 20 {
		t.Errorf("messages = %d", agg.Messages)
	}
	if !almost(agg.SuccessRate.Mean(), 0.7) {
		t.Errorf("success mean = %v", agg.SuccessRate.Mean())
	}
	if agg.AvgCompletionTime.N() != 1 {
		t.Error("runs without completions must not skew completion time")
	}
}

func TestWelchT(t *testing.T) {
	mk := func(vals ...float64) *metrics.Sample {
		s := &metrics.Sample{}
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	// Clearly separated samples: large positive t, sensible df.
	a := mk(0.9, 0.91, 0.92, 0.89, 0.9, 0.91, 0.9, 0.92, 0.9, 0.91, 0.9, 0.91)
	b := mk(0.5, 0.52, 0.51, 0.49, 0.5, 0.51, 0.5, 0.52, 0.5, 0.51, 0.5, 0.49)
	tt, df := metrics.WelchT(a, b)
	if tt < 10 {
		t.Errorf("t = %v, expected large", tt)
	}
	if df < 5 || df > 25 {
		t.Errorf("df = %v implausible", df)
	}
	if !metrics.SignificantlyGreater(a, b) {
		t.Error("clearly separated samples must be significant")
	}
	if metrics.SignificantlyGreater(b, a) {
		t.Error("direction matters")
	}
	// Identical samples: t ≈ 0, not significant.
	c := mk(0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7)
	d := mk(0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7, 0.7, 0.71, 0.69, 0.7)
	if metrics.SignificantlyGreater(c, d) {
		t.Error("identical samples cannot be significant")
	}
	// Degenerate inputs.
	if tt, df := metrics.WelchT(mk(1), mk(1, 2, 3)); tt != 0 || df != 0 {
		t.Error("tiny sample must return zeros")
	}
	if tt, _ := metrics.WelchT(mk(1, 1, 1), mk(1, 1, 1)); tt != 0 {
		t.Error("zero-variance pair must return zero t")
	}
}

// kindLog is a sink counting the events of the kinds it wants, by kind.
type kindLog struct {
	kinds sim.KindSet
	seen  map[sim.EventKind]int
}

func (l *kindLog) Kinds() sim.KindSet { return l.kinds }
func (l *kindLog) On(ev sim.Event)    { l.seen[ev.Kind]++ }

// TestSinkKindFiltering pins the kind filter in both directions: a sink
// subscribed to submits alone sees nothing else over a whole run, and
// the always-attached collector asks for exactly the seven
// protocol-level kinds — never the per-slot or per-reception ones.
func TestSinkKindFiltering(t *testing.T) {
	submits := &kindLog{kinds: sim.KindsOf(sim.EvSubmit), seen: map[sim.EventKind]int{}}
	cfg := experiments.Defaults(experiments.BMMM, 3)
	cfg.Nodes, cfg.Slots = 40, 2000
	cfg.Sinks = []sim.Sink{submits}
	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(submits.seen) != 1 || submits.seen[sim.EvSubmit] != len(res.Collector.Records()) {
		t.Errorf("submit-only sink saw %v, want exactly the %d submits", submits.seen, len(res.Collector.Records()))
	}

	wants := sim.Combine(metrics.NewCollector()).Kinds()
	for k := sim.EventKind(0); int(k) < sim.NumEventKinds; k++ {
		want := k <= sim.EvAbort // submit, contention, frame-tx, data-rx, round, complete, abort
		if got := wants.Has(k); got != want {
			t.Errorf("collector wants %s = %v, want %v", k, got, want)
		}
	}
}
