// Package experiments defines and runs the simulation studies that
// regenerate every table and figure of the paper's evaluation (§6–§7):
// Table 1, Figure 2 (timeline), Figure 5 (analysis) and Figures 6–10
// (simulation sweeps over nodal density, message generation rate,
// timeout and reliability threshold).
//
// A single simulation run follows the paper's Table 2 defaults: 100
// nodes uniform in the unit square, radius 0.2, 10 000 slots, timeout
// 100 slots, traffic mix 0.2/0.4/0.4, generation rate 0.0005 per node
// per slot, reliability threshold 90%, DS capture per Zorzi–Rao. Every
// plotted point averages many independent runs; runs execute in parallel
// on a worker pool with deterministic per-run seeds.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"relmac/internal/baseline/bmw"
	"relmac/internal/baseline/dcf"
	"relmac/internal/baseline/kuri"
	"relmac/internal/baseline/tgbcast"
	"relmac/internal/capture"
	"relmac/internal/core"
	"relmac/internal/fault"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// Protocol identifies one of the simulated MAC protocols.
type Protocol string

// The five protocols of the study. Plain80211 is the unreliable stock
// multicast (not plotted in the paper but a useful floor); the other
// four are the paper's comparison set.
const (
	Plain80211 Protocol = "802.11"
	BSMA       Protocol = "BSMA"
	BMW        Protocol = "BMW"
	BMMM       Protocol = "BMMM"
	LAMM       Protocol = "LAMM"
	// KKLeader is the leader-based reliable multicast of Kuri and Kasera
	// (reference [13] of the paper) — not part of the paper's evaluation,
	// included as an extra comparison point.
	KKLeader Protocol = "KK-Leader"
)

// PaperProtocols is the comparison set of the paper's figures, in
// plotting order.
var PaperProtocols = []Protocol{BSMA, BMW, BMMM, LAMM}

// AllProtocols additionally includes the stock 802.11 multicast.
var AllProtocols = []Protocol{Plain80211, BSMA, BMW, BMMM, LAMM}

// ExtendedProtocols adds the comparison points beyond the paper's set.
var ExtendedProtocols = []Protocol{Plain80211, BSMA, KKLeader, BMW, BMMM, LAMM}

// Factory returns the MAC factory for a protocol.
func Factory(p Protocol, cfg mac.Config) (func(node int, env *sim.Env) sim.MAC, error) {
	switch p {
	case Plain80211:
		return dcf.NewPlain(cfg), nil
	case BSMA:
		return tgbcast.NewBSMA(cfg), nil
	case BMW:
		return bmw.New(cfg), nil
	case BMMM:
		return core.NewBMMM(cfg), nil
	case LAMM:
		return core.NewLAMM(cfg), nil
	case KKLeader:
		return kuri.New(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown protocol %q", p)
	}
}

// RunConfig fully describes one simulation run.
type RunConfig struct {
	Protocol  Protocol
	Nodes     int
	Radius    float64
	Slots     int
	Timeout   int
	Rate      float64
	Mix       traffic.Mix
	Threshold float64
	Capture   capture.Model
	// ErrRate is the per-frame, per-receiver erasure probability injected
	// into the channel (0 in the paper's collision-only setup).
	ErrRate float64
	// Fault configures the impairment subsystem (internal/fault): i.i.d.
	// packet error rate, Gilbert–Elliott bursty links, node crashes and
	// LAMM location noise. The zero value is a true no-op — results are
	// byte-identical to a faultless run at the same seed. When
	// Fault.Seed is zero it is derived from Seed, so the seedFor scheme
	// stays the single source of randomness.
	Fault fault.Config
	MAC   mac.Config
	Seed  int64
	// Sinks receive the run's event stream (sim.Config.Sink) alongside
	// the metrics collector, combined with sim.Combine in this order
	// after it — the hook for tracers, stat registries, airtime ledgers,
	// drift monitors, flight recorders and auditors (internal/obs).
	// Attach each consumer once. Empty keeps the collector-only path.
	Sinks []sim.Sink
	// Reference runs the engine's naive path (sim.Config.Reference) and,
	// for LAMM, disables the MCS memo. Results are bit-identical with the
	// flag on and off; it exists for equivalence tests and cmd/relbench.
	Reference bool
	// Profiler attaches a runtime phase profiler to the engine
	// (sim.Config.Profiler) — typically a prof.PhaseTimer. Profilers
	// are PRNG-neutral and mutation-free by contract, so results are
	// byte-identical with and without one. One profiler serves one
	// engine at a time: sweeps must attach a fresh one per run (via
	// Instrument) and pool them with prof.Aggregate. Nil keeps the
	// engine's zero-cost path.
	Profiler sim.Profiler
}

// Defaults returns the paper's Table 2 configuration for the given
// protocol and seed.
func Defaults(p Protocol, seed int64) RunConfig {
	return RunConfig{
		Protocol:  p,
		Nodes:     100,
		Radius:    0.2,
		Slots:     10000,
		Timeout:   100,
		Rate:      0.0005,
		Mix:       traffic.DefaultMix(),
		Threshold: 0.9,
		Capture:   capture.ZorziRao{},
		MAC:       mac.DefaultConfig(),
		Seed:      seed,
	}
}

// RunResult carries one run's aggregate outcomes.
type RunResult struct {
	Summary   metrics.Summary
	AvgDegree float64
	// Collector is retained so callers can re-summarise at other
	// thresholds (Figure 8).
	Collector *metrics.Collector
	Horizon   sim.Slot
	// Fault is the impairment injector the run used, nil when no channel
	// or crash impairment was active; callers export its degradation
	// counters with FeedRegistry.
	Fault *fault.Injector
}

// Validate reports the first invalid field of the configuration: fewer
// than one node, a radius that is not positive, fewer than one slot, a
// negative timeout, a reliability threshold or generation rate outside
// [0, 1], or an invalid fault configuration (NaN is invalid everywhere).
func (cfg RunConfig) Validate() error {
	switch {
	case cfg.Nodes < 1:
		return fmt.Errorf("experiments: nodes %d: need at least 1", cfg.Nodes)
	case !(cfg.Radius > 0):
		return fmt.Errorf("experiments: radius %v: must be positive", cfg.Radius)
	case cfg.Slots < 1:
		return fmt.Errorf("experiments: slots %d: need at least 1", cfg.Slots)
	case cfg.Timeout < 0:
		return fmt.Errorf("experiments: timeout %d: must not be negative", cfg.Timeout)
	case !(cfg.Threshold >= 0 && cfg.Threshold <= 1):
		return fmt.Errorf("experiments: threshold %v outside [0,1]", cfg.Threshold)
	}
	if err := traffic.ValidateRate(cfg.Rate); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return cfg.Fault.Validate()
}

// faultSeed derives the impairment seed from the run seed; a distinct
// mixing constant keeps it decoupled from both the topology RNG
// (cfg.Seed itself) and the channel RNG (cfg.Seed ^ 0x1e37…).
func faultSeed(seed int64) int64 { return seed ^ 0x5851f42d4c957f2d }

// TrafficSeed derives the key of the traffic generator's own stream
// (traffic.Generator.Seed) from a run seed, with a mixing constant
// distinct from the topology, channel and fault seeds. Every run at one
// seed, whatever its protocol, therefore draws the same arrivals.
func TrafficSeed(seed int64) int64 { return seed ^ 0x2545f4914f6cdd1d }

// faultPieces resolves the configured impairments: the channel/crash
// injector for the engine (nil when inert) and the resolved fault seed.
func faultPieces(cfg *RunConfig) (*fault.Injector, int64) {
	fc := cfg.Fault
	if fc.Seed == 0 {
		fc.Seed = faultSeed(cfg.Seed)
	}
	if !fc.ChannelActive() {
		return nil, fc.Seed
	}
	return fault.NewInjector(fc), fc.Seed
}

// faultFactory wraps the protocol factory with the location-noise axis:
// LAMM's believed coordinates get Gaussian error of LocNoise standard
// deviation, the stale-GPS stress on Theorems 1–4. Other protocols
// ignore location entirely and pass through.
func faultFactory(cfg *RunConfig, fseed int64) (func(node int, env *sim.Env) sim.MAC, error) {
	if cfg.Fault.LocNoise > 0 && cfg.Protocol == LAMM {
		return core.NewLAMMNoisy(cfg.MAC, cfg.Fault.LocNoise, fseed+1), nil
	}
	if cfg.Reference && cfg.Protocol == LAMM {
		return core.NewLAMMReference(cfg.MAC), nil
	}
	return Factory(cfg.Protocol, cfg.MAC)
}

// Run executes one simulation run to completion.
func Run(cfg RunConfig) (RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	inj, fseed := faultPieces(&cfg)
	factory, err := faultFactory(&cfg, fseed)
	if err != nil {
		return RunResult{}, err
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	tp := topo.Uniform(cfg.Nodes, cfg.Radius, rng)
	col := metrics.NewCollector()
	sink := sim.Sink(col)
	if len(cfg.Sinks) > 0 {
		sink = sim.Combine(append([]sim.Sink{col}, cfg.Sinks...)...)
	}
	var imp sim.Impairment
	if inj != nil {
		imp = inj
	}
	eng := sim.New(sim.Config{
		Topo:       tp,
		Capture:    cfg.Capture,
		ErrRate:    cfg.ErrRate,
		Impairment: imp,
		Seed:       cfg.Seed ^ 0x1e3779b97f4a7c15, // decouple channel RNG from topology
		Sink:       sink,
		Reference:  cfg.Reference,
		Profiler:   cfg.Profiler,
	})
	eng.AttachMACs(factory)
	gen := traffic.NewGenerator(tp)
	gen.Rate = cfg.Rate
	gen.Mix = cfg.Mix
	gen.Timeout = cfg.Timeout
	gen.Seed = TrafficSeed(cfg.Seed)
	eng.Run(cfg.Slots, gen)
	horizon := sim.Slot(cfg.Slots)
	return RunResult{
		Summary:   col.Summarize(cfg.Threshold, metrics.GroupFilter(horizon)),
		AvgDegree: tp.AvgDegree(),
		Collector: col,
		Horizon:   horizon,
		Fault:     inj,
	}, nil
}

// PointStats aggregates the runs of one (sweep point, protocol) cell.
type PointStats struct {
	metrics.SummaryStats
	AvgDegree metrics.Sample
	// Collectors are kept only when the sweep requests them (Figure 8).
	Collectors []*metrics.Collector
	Horizon    sim.Slot
}

// ProgressMeter sinks the per-sweep-point progress lines of Sweep and
// supplies the clock behind their elapsed/ETA arithmetic. The injectable
// Clock keeps the sweep path structurally free of wall-clock calls — the
// determinism invariant relmaclint enforces — and makes the progress
// output testable with a fake clock; the time.Now default is only a
// function value here and is invoked solely on behalf of a caller that
// asked for progress reporting.
type ProgressMeter struct {
	// W receives one line per completed sweep point — progress fraction,
	// elapsed time and an ETA — so minutes-long cmd/experiments sweeps
	// are not silent. nil disables reporting.
	W io.Writer
	// Clock timestamps the elapsed/ETA math; nil means time.Now.
	Clock func() time.Time
	// Status, when non-nil, is updated after every completed run with
	// progress counts and elapsed/ETA — the live feed behind the metrics
	// endpoint's sweep gauges. nil disables the bookkeeping.
	Status *SweepStatus
}

// clock returns the meter's clock, defaulting to the wall clock. The
// default is taken as a function value, never called here, which is what
// keeps the determinism exception structural rather than suppressed.
func (pm ProgressMeter) clock() func() time.Time {
	if pm.Clock == nil {
		return time.Now
	}
	return pm.Clock
}

// Progress configures sweep progress reporting. Set Progress.W
// (typically to os.Stderr) before starting sweeps; Sweep snapshots the
// meter at entry, so it must not be mutated while a sweep is in flight.
var Progress ProgressMeter

// Instrument, when non-nil, is invoked on every run configuration after
// the sweep's own mutation and before the run executes — the hook the
// cmd layer uses to attach fresh per-run sinks (airtime ledgers,
// drift monitors) to whole sweeps without touching each sweep function.
// It is called from worker goroutines, so it must be safe for concurrent
// use; like Progress it is snapshotted at Sweep entry and must not be
// mutated while a sweep is in flight. Attached sinks must not perturb
// results (hookpure holds them to it).
var Instrument func(cfg *RunConfig)

// Sweep runs `runs` independent simulations for every (point, protocol)
// pair, in parallel across the machine's cores. mutate configures the
// run for sweep point i starting from the paper defaults. When
// keepCollectors is true the per-run collectors are retained for
// post-hoc re-thresholding.
func Sweep(points int, protocols []Protocol, runs int,
	mutate func(point int, cfg *RunConfig), keepCollectors bool) ([][]PointStats, error) {

	results := make([][]PointStats, points)
	for i := range results {
		results[i] = make([]PointStats, len(protocols))
	}
	type task struct{ point, proto, run int }
	tasks := make(chan task)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	if workers < 1 {
		workers = 1
	}
	progress := Progress
	instrument := Instrument
	clock := progress.clock()
	start := clock()
	perPoint := len(protocols) * runs
	total := points * perPoint
	done := 0
	pointDone := make([]int, points)
	pointsDone := 0
	if progress.Status != nil {
		progress.Status.begin(points, total)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				cfg := Defaults(protocols[tk.proto], seedFor(tk.point, tk.proto, tk.run))
				mutate(tk.point, &cfg)
				if instrument != nil {
					instrument(&cfg)
				}
				res, err := Run(cfg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				cell := &results[tk.point][tk.proto]
				cell.Add(res.Summary)
				cell.AvgDegree.Add(res.AvgDegree)
				cell.Horizon = res.Horizon
				if keepCollectors {
					cell.Collectors = append(cell.Collectors, res.Collector)
				}
				done++
				pointDone[tk.point]++
				pointComplete := pointDone[tk.point] == perPoint
				if pointComplete {
					pointsDone++
				}
				if progress.Status != nil || (progress.W != nil && pointComplete) {
					elapsed := clock().Sub(start)
					eta := time.Duration(0)
					if done > 0 {
						eta = elapsed * time.Duration(total-done) / time.Duration(done)
					}
					if progress.Status != nil {
						progress.Status.update(done, pointsDone, elapsed, eta)
					}
					if progress.W != nil && pointComplete {
						fmt.Fprintf(progress.W,
							"sweep: point %d/%d done (%d/%d runs, %d%%), elapsed %s, eta %s\n",
							pointsDone, points, done, total, 100*done/total,
							elapsed.Round(time.Second), eta.Round(time.Second))
					}
				}
				mu.Unlock()
			}
		}()
	}
	for p := 0; p < points; p++ {
		for pr := range protocols {
			for r := 0; r < runs; r++ {
				tasks <- task{p, pr, r}
			}
		}
	}
	close(tasks)
	wg.Wait()
	if progress.Status != nil {
		progress.Status.finish(clock().Sub(start))
	}
	return results, firstErr
}

// seedFor derives a deterministic seed for a (sweep point, protocol,
// run) cell. The proto index is deliberately NOT mixed in: the paper's
// figures compare protocols on the same axes, which is a paired design —
// every protocol at a given (point, run) must face the identical
// topology, traffic arrivals, channel randomness and (derived from this
// seed) fault schedule, so that a curve separation measures the
// protocol, not the luck of the draw. The parameter is kept in the
// signature to document at each call site that the pairing is a choice,
// not an omission; TestSeedForPairsProtocols pins the behaviour.
func seedFor(point, proto, run int) int64 {
	return int64(point)*1_000_003 + int64(run)*7919 + 12345
}
