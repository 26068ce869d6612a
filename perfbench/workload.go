package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"relmac/internal/capture"
	"relmac/internal/experiments"
	"relmac/internal/metrics"
	"relmac/internal/traffic"
)

// The benchmark copies the paper's parameters instead of reading the
// program's own tables (experiments.Defaults, DensityPoints,
// relbench.SparseRate), so a later change to those tables cannot silently
// change what the benchmark measures.
var (
	// allProtocols is experiments.AllProtocols: the paper's four plus
	// stock 802.11 multicast.
	allProtocols = []experiments.Protocol{
		experiments.Plain80211, experiments.BSMA, experiments.BMW, experiments.BMMM, experiments.LAMM,
	}
	// densityPoints is the node-count axis of Figures 6(a), 9(a), 10(a).
	densityPoints = []int{30, 60, 100, 150, 200}
)

const (
	// threshold is Table 2's reliability threshold; delivery_rate is
	// the successful-delivery rate at it (Figure 6).
	threshold = 0.9
	// sparseRate is Figure 6(b)'s lowest generation rate.
	sparseRate = 0.00025
)

// table2 sets every model field of cfg to the paper's Table 2 defaults.
func table2(cfg *experiments.RunConfig) {
	cfg.Nodes = 100
	cfg.Radius = 0.2
	cfg.Slots = 10_000
	cfg.Timeout = 100
	cfg.Rate = 0.0005
	cfg.Mix = traffic.DefaultMix()
	cfg.Threshold = threshold
	cfg.Capture = capture.ZorziRao{}
}

// workload is one batch of simulation runs. The benchmark sets only the
// model fields of experiments.RunConfig (see README.md for why).
type workload struct {
	name      string
	protocols []experiments.Protocol
	points    int // sweep points
	runs      int // runs per (point, protocol) cell
	// sweep runs the batch as one experiments.Sweep call on
	// runtime.NumCPU() workers, the way cmd/experiments regenerates a
	// figure; otherwise the runs are experiments.Run calls made one at
	// a time.
	sweep bool
	// ordering requires the batch to reproduce the protocol orderings
	// of the paper that TestPaperOrderingHolds pins.
	ordering bool
	// model sets the model fields for a sweep point; never the seed.
	model func(point int, cfg *experiments.RunConfig)
}

var workloads = []workload{
	{
		name: "paper-density", protocols: allProtocols, points: len(densityPoints), runs: 4,
		sweep: true, ordering: true,
		model: func(point int, cfg *experiments.RunConfig) {
			table2(cfg)
			cfg.Nodes = densityPoints[point]
		},
	},
	{
		name: "sparse-rate", protocols: allProtocols, points: 1, runs: 4,
		sweep: true, ordering: true,
		model: func(_ int, cfg *experiments.RunConfig) {
			table2(cfg)
			cfg.Rate = sparseRate
			cfg.Slots = 100_000
		},
	},
	{
		name: "dense-field", protocols: []experiments.Protocol{experiments.LAMM}, points: 1, runs: 4,
		model: func(_ int, cfg *experiments.RunConfig) {
			table2(cfg)
			cfg.Nodes = 20_000
			cfg.Radius = 0.016
			cfg.Slots = 300
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is how many runs of the batch execute at once.
func (w workload) workers() int {
	if w.sweep {
		return runtime.NumCPU()
	}
	return 1
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runSeed derives one run's seed from the workload seed and the run's
// cell. Runs that share a cell share a seed, so every protocol at one
// (point, run) faces the same topology and traffic, as in the paper.
func runSeed(workloadSeed, cell int64) int64 {
	return int64(splitmix64(splitmix64(uint64(workloadSeed))^uint64(cell)) >> 1)
}

// job is one generated run of a batch.
type job struct {
	point, proto int
	cfg          experiments.RunConfig
}

func (w workload) protoIndex(p experiments.Protocol) int {
	for i, q := range w.protocols {
		if q == p {
			return i
		}
	}
	return -1
}

// generate builds the jobs of a sequential workload.
func (w workload) generate(seed int64) []job {
	var jobs []job
	for point := 0; point < w.points; point++ {
		for proto, p := range w.protocols {
			for run := 0; run < w.runs; run++ {
				cfg := experiments.Defaults(p, 0)
				w.model(point, &cfg)
				cfg.Seed = runSeed(seed, int64(point)<<32|int64(run))
				jobs = append(jobs, job{point, proto, cfg})
			}
		}
	}
	return jobs
}

// sortJobs puts jobs in canonical order: point, protocol, seed.
func sortJobs(jobs []job) {
	sort.Slice(jobs, func(a, b int) bool {
		x, y := jobs[a], jobs[b]
		if x.point != y.point {
			return x.point < y.point
		}
		if x.proto != y.proto {
			return x.proto < y.proto
		}
		return x.cfg.Seed < y.cfg.Seed
	})
}

// batch is one untraced execution of a workload's batch.
type batch struct {
	jobs      []job     // canonical order
	outs      []outcome // one per run, in no particular order
	wall, cpu time.Duration
}

// execute runs the workload's batch once, untraced, the way a researcher
// would: one experiments.Sweep call, or experiments.Run calls one at a
// time. Its jobs are generated from the workload seed alone.
func (w workload) execute(seed int64) (batch, error) {
	if !w.sweep {
		return w.executeSequential(seed)
	}
	var mu sync.Mutex
	var jobs []job
	mutate := func(point int, cfg *experiments.RunConfig) {
		w.model(point, cfg)
		// Sweep's own seed is unique per (point, run) and shared by
		// the protocols of a cell; remapping it keeps that pairing.
		cfg.Seed = runSeed(seed, cfg.Seed)
		mu.Lock()
		jobs = append(jobs, job{point, w.protoIndex(cfg.Protocol), *cfg})
		mu.Unlock()
	}
	cpu0, err := cpuTime()
	if err != nil {
		return batch{}, err
	}
	start := time.Now()
	cells, sweepErr := experiments.Sweep(w.points, w.protocols, w.runs, mutate, true)
	wall := time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return batch{}, err
	}
	b := batch{jobs: jobs, wall: wall, cpu: cpu1 - cpu0}
	sortJobs(b.jobs)
	for point, row := range cells {
		for proto, cell := range row {
			for _, col := range cell.Collectors {
				if col == nil {
					b.outs = append(b.outs, outcome{point: point, proto: proto, err: sweepErr})
					continue
				}
				b.outs = append(b.outs, outcomeOf(point, proto,
					col.Summarize(threshold, metrics.GroupFilter(cell.Horizon)), col))
			}
		}
	}
	if len(b.jobs) != len(b.outs) {
		return b, fmt.Errorf("%s: sweep generated %d runs but returned %d", w.name, len(b.jobs), len(b.outs))
	}
	return b, nil
}

func (w workload) executeSequential(seed int64) (batch, error) {
	b := batch{jobs: w.generate(seed)}
	cpu0, err := cpuTime()
	if err != nil {
		return batch{}, err
	}
	start := time.Now()
	for _, j := range b.jobs {
		res, err := experiments.Run(j.cfg)
		b.outs = append(b.outs, runOutcome(j, res, err))
	}
	b.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return batch{}, err
	}
	b.cpu = cpu1 - cpu0
	return b, nil
}
