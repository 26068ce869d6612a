package experiments_test

// The differential suite behind the deterministic parallel tile
// resolver: a run's output must be a pure function of the configuration,
// never of the worker schedule. The witness is byte-identity between
// Workers=1 and Workers=8 — same tiling, same per-tile PRNG streams,
// maximally different interleavings — across every protocol, clean and
// impaired. Run under -race in CI, the suite doubles as the data-race
// gate for the tile ownership argument.

import (
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
)

// withWorkers returns a mutation composing base (may be nil) with a
// worker-count override.
func withWorkers(workers int, base func(cfg *experiments.RunConfig)) func(cfg *experiments.RunConfig) {
	return func(cfg *experiments.RunConfig) {
		if base != nil {
			base(cfg)
		}
		cfg.Workers = workers
	}
}

// TestParallelWorkerCountInvariance is the schedule-independence gate
// for all five protocols: one worker and eight workers must produce
// byte-identical transcripts, observer event streams, summaries,
// airtime ledgers and conformance audits.
func TestParallelWorkerCountInvariance(t *testing.T) {
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			one := runFull(t, proto, false, withWorkers(1, nil))
			eight := runFull(t, proto, false, withWorkers(8, nil))
			if len(one.transcript) == 0 {
				t.Fatal("run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, eight, one)
		})
	}
}

// TestParallelWorkerCountInvarianceImpaired repeats the gate with the
// impairment subsystem active — i.i.d. frame erasures plus node
// crash/recover schedules — and sparse traffic, so slot skipping,
// wake obligations and the fault injector's lazily materialised
// schedules all interleave with the tile resolver.
func TestParallelWorkerCountInvarianceImpaired(t *testing.T) {
	impaired := func(cfg *experiments.RunConfig) {
		cfg.Rate = 0.00025
		cfg.Slots = 4000
		cfg.Fault = fault.Config{
			PER:   0.02,
			Crash: fault.Crash{MTTF: 1500, MTTR: 150},
		}
	}
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			one := runFull(t, proto, false, withWorkers(1, impaired))
			eight := runFull(t, proto, false, withWorkers(8, impaired))
			if len(one.transcript) == 0 {
				t.Fatal("impaired run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, eight, one)
		})
	}
}

// TestParallelWorkerCountInvarianceFineTiles shrinks the tile side to
// the 2×radius minimum, maximising the tile count and the seam set —
// the regime where a merge-order or ownership bug has the most chances
// to show — and checks worker counts 1, 3 and 8 pairwise against each
// other for the protocol with the deepest cache stack.
func TestParallelWorkerCountInvarianceFineTiles(t *testing.T) {
	fine := func(cfg *experiments.RunConfig) {
		cfg.TileSize = 2 * cfg.Radius
	}
	base := runFull(t, experiments.LAMM, false, withWorkers(1, fine))
	if len(base.transcript) == 0 {
		t.Fatal("run produced no traffic; the comparison is vacuous")
	}
	for _, workers := range []int{3, 8} {
		w := runFull(t, experiments.LAMM, false, withWorkers(workers, fine))
		diffWitnesses(t, w, base)
	}
}
