package experiments_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/sim"
)

// submitLog records every request as it reaches a MAC.
type submitLog struct {
	sim.NopObserver
	lines []string
}

func (l *submitLog) OnSubmit(req *sim.Request, now sim.Slot) {
	l.lines = append(l.lines, fmt.Sprintf("id=%d src=%d kind=%v dests=%v arrival=%d @%d",
		req.ID, req.Src, req.Kind, req.Dests, req.Arrival, now))
}

// TestPairedTraffic: the traffic generator draws from its own stream, so
// at one seed every protocol faces the identical request sequence — the
// paired design behind the paper's per-point protocol comparisons —
// however differently the MACs consume the engine PRNG.
func TestPairedTraffic(t *testing.T) {
	var first []string
	for _, proto := range experiments.AllProtocols {
		cfg := experiments.Defaults(proto, 7)
		cfg.Slots = 3000
		log := &submitLog{}
		cfg.Observers = []sim.Observer{log}
		if _, err := experiments.Run(cfg); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if first == nil {
			if len(log.lines) == 0 {
				t.Fatal("no requests generated; the comparison is vacuous")
			}
			first = log.lines
			continue
		}
		if !slices.Equal(log.lines, first) {
			n := min(len(log.lines), len(first))
			i := 0
			for i < n && log.lines[i] == first[i] {
				i++
			}
			t.Errorf("%s: %d requests vs %d for %s; first difference at request %d",
				proto, len(log.lines), len(first), experiments.AllProtocols[0], i)
		}
	}
}

// TestRunRejectsInvalidRate: a generation rate outside [0, 1] is a
// configuration error, not a silently capped or garbage workload, and a
// rate too small for any gap to fit the slot counter generates nothing.
func TestRunRejectsInvalidRate(t *testing.T) {
	for _, rate := range []float64{-0.5, 1.5, 2, math.NaN(), math.Inf(1)} {
		cfg := experiments.Defaults(experiments.BMMM, 1)
		cfg.Slots = 10
		cfg.Rate = rate
		if _, err := experiments.Run(cfg); err == nil {
			t.Errorf("rate %v: Run returned no error", rate)
		}
	}
	cfg := experiments.Defaults(experiments.BMMM, 1)
	cfg.Nodes = 20
	cfg.Slots = 2000
	cfg.Rate = 1e-300
	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Messages != 0 {
		t.Errorf("rate 1e-300: %d messages, want 0", res.Summary.Messages)
	}
}

// TestRunRejectsInvalidSize: a run with no stations, a radius that is
// not positive (NaN included) or no slots is a configuration error, not
// a panic deep in topology building or an all-zero result.
func TestRunRejectsInvalidSize(t *testing.T) {
	cases := []struct {
		name string
		set  func(cfg *experiments.RunConfig)
	}{
		{"nodes 0", func(cfg *experiments.RunConfig) { cfg.Nodes = 0 }},
		{"nodes -3", func(cfg *experiments.RunConfig) { cfg.Nodes = -3 }},
		{"radius 0", func(cfg *experiments.RunConfig) { cfg.Radius = 0 }},
		{"radius -1", func(cfg *experiments.RunConfig) { cfg.Radius = -1 }},
		{"radius NaN", func(cfg *experiments.RunConfig) { cfg.Radius = math.NaN() }},
		{"slots 0", func(cfg *experiments.RunConfig) { cfg.Slots = 0 }},
		{"slots -5", func(cfg *experiments.RunConfig) { cfg.Slots = -5 }},
	}
	for _, c := range cases {
		cfg := experiments.Defaults(experiments.BMMM, 1)
		cfg.Slots = 10
		c.set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate returned no error", c.name)
		}
		if _, err := experiments.Run(cfg); err == nil {
			t.Errorf("%s: Run returned no error", c.name)
		}
	}
}
