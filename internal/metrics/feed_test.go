package metrics_test

import (
	"testing"

	"relmac/internal/frames"
	"relmac/internal/metrics"
	"relmac/internal/obs"
	"relmac/internal/prototest"
	"relmac/internal/sim"
)

func TestFeedRegistry(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}

	// Message 1: two contention phases, completed at slot 50.
	r1 := submit(c, 1, sim.Multicast, []int{1, 2}, 10, 110)
	in.Contention(r1, 11)
	in.Contention(r1, 30)
	in.FrameTx(&frames.Frame{Type: frames.RTS}, 0, 12)
	in.FrameTx(&frames.Frame{Type: frames.Data}, 0, 14)
	in.Complete(r1, 50)

	// Message 2: aborted at its deadline after one raking round.
	r2 := submit(c, 2, sim.Broadcast, []int{1}, 20, 60)
	in.Round(r2, 1, 40)
	in.Abort(r2, sim.AbortDeadline, 61)

	reg := obs.NewRegistry()
	c.FeedRegistry(reg, "LAMM")

	for name, want := range map[string]int64{
		"LAMM.messages":         2,
		"LAMM.completed":        1,
		"LAMM.aborted":          1,
		"LAMM.aborted.deadline": 1,
		"LAMM.aborted.retries":  0,
		"LAMM.rounds":           1,
		"LAMM.frames.RTS":       1,
		"LAMM.frames.DATA":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	comp := reg.Histogram("LAMM.completion_slots")
	if comp.Count() != 1 || comp.Mean() != 40 {
		t.Errorf("completion hist: n=%d mean=%g, want n=1 mean=40", comp.Count(), comp.Mean())
	}
	cont := reg.Histogram("LAMM.contention_phases")
	if cont.Count() != 2 || cont.Mean() != 1 {
		t.Errorf("contention hist: n=%d mean=%g, want n=2 mean=1", cont.Count(), cont.Mean())
	}

	// Feeding a second collector aggregates into the same instruments.
	c2 := metrics.NewCollector()
	in2 := prototest.Feed{Sink: c2}
	r3 := submit(c2, 3, sim.Multicast, []int{1}, 0, 100)
	in2.Complete(r3, 20)
	c2.FeedRegistry(reg, "LAMM")
	if got := reg.Counter("LAMM.messages").Value(); got != 3 {
		t.Errorf("aggregated messages = %d, want 3", got)
	}
}

// TestFrameCounterCoversAllTypes guards the frames.NumTypes-sized
// counter array: every declared frame type must be countable.
func TestFrameCounterCoversAllTypes(t *testing.T) {
	c := metrics.NewCollector()
	in := prototest.Feed{Sink: c}
	for _, ft := range frames.Types() {
		in.FrameTx(&frames.Frame{Type: ft}, 0, 0)
	}
	for _, ft := range frames.Types() {
		if got := c.FrameCount(ft); got != 1 {
			t.Errorf("FrameCount(%s) = %d, want 1", ft, got)
		}
	}
	if got := c.FrameCount(frames.Type(200)); got != 0 {
		t.Errorf("out-of-range FrameCount = %d, want 0", got)
	}
}
