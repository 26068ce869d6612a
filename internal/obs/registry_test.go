package obs_test

import (
	"strings"
	"sync"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/obs"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

func TestRegistryCountersAndHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x.total")
	c.Add(3)
	c.Inc()
	if got := reg.Counter("x.total").Value(); got != 4 {
		t.Errorf("counter = %d, want 4 (lookup must return the same instance)", got)
	}

	h := reg.Histogram("x.lat", 10, 20, 30)
	for _, v := range []float64{5, 10, 11, 25, 99} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Mean(), 30.0; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets: %d bounds, %d counts; want 3, 4", len(bounds), len(counts))
	}
	// v <= bound lands in that bucket: {5,10}, {11,20? no: 11<=20}, {25}, {99}.
	wantCounts := []int64{2, 1, 1, 1}
	for i, c := range counts {
		if c != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
	}
	// Re-lookup with different bounds keeps the original shape.
	if b2, _ := reg.Histogram("x.lat", 1, 2).Buckets(); len(b2) != 3 {
		t.Errorf("re-lookup changed bucket count to %d", len(b2))
	}
}

func TestRegistryWriteToSortedAndStable(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("b.second").Add(2)
	reg.Counter("a.first").Add(1)
	reg.Histogram("c.hist", 1, 10).Observe(3)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a.first") || !strings.Contains(lines[1], "b.second") {
		t.Errorf("counters not sorted by name:\n%s", out)
	}
	if !strings.Contains(lines[2], "c.hist") || !strings.Contains(lines[2], "n=1") {
		t.Errorf("histogram line malformed:\n%s", out)
	}
}

func TestRegistryConcurrentFeed(t *testing.T) {
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Inc()
				reg.Histogram("h", 10, 100).Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestStatsObserverFeedsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	st := prototest.Feed{Sink: obs.NewStats(reg, "BMMM")}

	req := &sim.Request{ID: 1, Src: 0, Arrival: 10, Deadline: 110}
	st.Submit(req, 10)
	st.Contention(req, 11)
	st.Contention(req, 30)
	st.FrameTx(&frames.Frame{Type: frames.RTS, MsgID: 1}, 0, 12)
	st.FrameTx(&frames.Frame{Type: frames.Data, MsgID: 1}, 0, 14)
	st.DataRx(1, 2, 18)
	st.Complete(req, 40)

	req2 := &sim.Request{ID: 2, Src: 1, Arrival: 20, Deadline: 120}
	st.Submit(req2, 20)
	st.Round(req2, 3, 60)
	st.Abort(req2, sim.AbortDeadline, 120)

	check := func(name string, want int64) {
		t.Helper()
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("BMMM.submits", 2)
	check("BMMM.contentions", 2)
	check("BMMM.frames.RTS", 1)
	check("BMMM.frames.DATA", 1)
	check("BMMM.data_rx", 1)
	check("BMMM.completes", 1)
	check("BMMM.aborts", 1)
	check("BMMM.aborts.deadline", 1)
	check("BMMM.aborts.retries", 0)
	check("BMMM.rounds", 1)

	resid := reg.Histogram("BMMM.round_residual")
	if resid.Count() != 1 || resid.Mean() != 3 {
		t.Errorf("residual hist: n=%d mean=%g, want n=1 mean=3", resid.Count(), resid.Mean())
	}

	comp := reg.Histogram("BMMM.completion_slots")
	if comp.Count() != 1 || comp.Mean() != 30 {
		t.Errorf("completion hist: n=%d mean=%g, want n=1 mean=30", comp.Count(), comp.Mean())
	}
	cont := reg.Histogram("BMMM.contention_phases")
	// Both the completed (2 phases) and the aborted (0 phases) message
	// contribute.
	if cont.Count() != 2 || cont.Mean() != 1 {
		t.Errorf("contention hist: n=%d mean=%g, want n=2 mean=1", cont.Count(), cont.Mean())
	}
}
