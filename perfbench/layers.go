package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"relmac/internal/experiments"
	"relmac/internal/geom"
	"relmac/internal/prof"
	"relmac/internal/topo"
)

// setupTime sums experiments.Run wall time over the jobs cut to a one-slot
// horizon: topology, engine, MAC and traffic-generator construction.
func setupTime(jobs []job) (time.Duration, error) {
	var total time.Duration
	for _, j := range jobs {
		cfg := j.cfg
		cfg.Slots = 1
		start := time.Now()
		_, err := experiments.Run(cfg)
		total += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("set-up of %s n=%d seed=%d: %w", cfg.Protocol, cfg.Nodes, cfg.Seed, err)
		}
	}
	return total, nil
}

// timedRun is one experiments.Run call of a pass.
type timedRun struct {
	out        outcome
	start, end time.Time
	timer      *prof.PhaseTimer // traced pass only
}

// runEach runs every job through experiments.Run on the given number of
// workers, handing jobs out in order as Sweep does, and times each call.
// A traced pass attaches a fresh phase profiler to every run.
func runEach(jobs []job, workers int, traced bool) ([]timedRun, time.Duration) {
	runs := make([]timedRun, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				if traced {
					runs[i].timer = prof.New()
					j.cfg.Profiler = runs[i].timer
				}
				runs[i].start = time.Now()
				res, err := experiments.Run(j.cfg)
				runs[i].end = time.Now()
				runs[i].out = runOutcome(j, res, err)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return runs, time.Since(start)
}

func outcomes(runs []timedRun) []outcome {
	outs := make([]outcome, len(runs))
	for i, r := range runs {
		outs[i] = r.out
	}
	return outs
}

func runWall(runs []timedRun) time.Duration {
	var d time.Duration
	for _, r := range runs {
		d += r.end.Sub(r.start)
	}
	return d
}

// phases are the engine phases reported in seconds. idle-skip is reported
// as a share of engine wall instead: it is exactly zero on every workload
// today, and a time that never moves cannot be told from a constant.
var phases = []string{"untracked", "busy-stamp", "arrivals", "mac-tick", "resolve", "observer-dispatch", "deliveries"}

// protoKey is the metric suffix for a protocol.
var protoKey = map[experiments.Protocol]string{
	experiments.Plain80211: "plain80211", experiments.BSMA: "bsma", experiments.BMW: "bmw",
	experiments.BMMM: "bmmm", experiments.LAMM: "lamm",
}

// geomStations caps how many stations of each topology the geometry
// probe visits, so the probe costs the same share of every workload.
const geomStations = 2000

// perLayer is the traced pass. It executes the batch untraced as the
// reference (recording the jobs), runs the same jobs again through
// experiments.Run untraced and then with a phase profiler on each run, and
// times the topology and geometry layers outside the engine on the batch's
// own topologies.
func perLayer(w workload, seed int64, spansPath string) (result, error) {
	var v verdict
	var rec recorder
	rec.base = time.Now()

	refStart := time.Now()
	ref, err := w.execute(seed)
	if err != nil {
		return result{}, err
	}
	rec.add(0, "batch.untraced", refStart, time.Now(), nil)
	v.checkRuns(w, ref.outs)
	want := tallyOf(ref.outs, len(w.protocols))
	v.checkOrdering(w, want)

	workers := w.workers()
	calib := calibrate()
	plain, plainWall := runEach(ref.jobs, workers, false)
	rec.addRuns("pass.untraced", plain, ref.jobs, plainWall)
	traced, tracedWall := runEach(ref.jobs, workers, true)
	rec.addRuns("pass.traced", traced, ref.jobs, tracedWall)

	for _, pass := range []struct {
		name string
		runs []timedRun
	}{{"untraced", plain}, {"traced", traced}} {
		outs := outcomes(pass.runs)
		v.checkRuns(w, outs)
		if !tallyOf(outs, len(w.protocols)).equal(want) {
			v.problem("%s: the %s pass's simulated results differ from the untraced batch's", w.name, pass.name)
		}
	}
	timers := make([]*prof.PhaseTimer, len(traced))
	byProto := map[experiments.Protocol][]*prof.PhaseTimer{}
	var stationSlots float64
	for i, r := range traced {
		if rep := r.timer.Report(); !rep.Conserved() {
			v.failed++
			v.problem("%s: run %d's phase times do not sum to its wall time", w.name, i)
		}
		timers[i] = r.timer
		p := ref.jobs[i].cfg.Protocol
		byProto[p] = append(byProto[p], r.timer)
		stationSlots += float64(ref.jobs[i].cfg.Nodes) * float64(ref.jobs[i].cfg.Slots)
	}
	eng := prof.Aggregate(timers)
	engWall := float64(eng.WallNs) / 1e9

	m := map[string]metric{}
	m["engine.wall_s"] = metric{engWall, "s"}
	for _, ph := range phases {
		m["engine."+ph+"_s"] = metric{float64(eng.PhaseNs(ph)) / 1e9, "s"}
	}
	m["engine.idle-skip_frac"] = metric{float64(eng.PhaseNs("idle-skip")) / float64(eng.WallNs), "ratio"}
	m["engine.ns_per_station_slot"] = metric{float64(eng.WallNs) / stationSlots, "ns"}
	m["sim.station_slots"] = metric{stationSlots, "count"}
	// Per-protocol time is a share of the pooled engine wall: a
	// protocol a workload does not run has exactly zero time.
	for _, p := range allProtocols {
		agg := prof.Aggregate(byProto[p])
		k := protoKey[p]
		m["engine.wall_frac."+k] = metric{float64(agg.WallNs) / float64(eng.WallNs), "ratio"}
		m["engine.mac-tick_frac."+k] = metric{float64(agg.PhaseNs("mac-tick")) / float64(eng.WallNs), "ratio"}
		m["engine.deliveries_frac."+k] = metric{float64(agg.PhaseNs("deliveries")) / float64(eng.WallNs), "ratio"}
	}

	tracedRunWall := runWall(traced).Seconds()
	plainRunWall := runWall(plain).Seconds()
	m["run.outside_engine_s"] = metric{tracedRunWall - engWall, "s"}
	m["sweep.idle_core_s"] = metric{float64(workers)*plainWall.Seconds() - plainRunWall, "s"}
	m["trace.overhead_ratio"] = metric{tracedRunWall / plainRunWall, "ratio"}
	m["host.calib_ms"] = metric{float64(calib) / 1e6, "ms"}

	m["mac.messages"] = metric{float64(want.messages), "count"}
	m["mac.contentions"] = metric{float64(want.contentions), "count"}
	m["mac.aborted"] = metric{float64(want.aborted), "count"}
	m["mac.frames_tx"] = metric{float64(want.framesTx), "count"}
	m["mac.control_per_data"] = metric{float64(want.framesTx-want.dataFrames) / float64(want.dataFrames), "count"}

	lay := probeLayers(ref.jobs, &rec)
	m["topo.build_ms"] = metric{lay.buildMs, "ms"}
	m["topo.avg_degree"] = metric{lay.avgDegree, "count"}
	m["geom.mcs_us"] = metric{lay.mcsUs, "us"}
	m["geom.update_us"] = metric{lay.updateUs, "us"}
	m["geom.mcs_ratio"] = metric{lay.mcsRatio, "count"}

	if err := rec.write(spansPath); err != nil {
		return result{}, err
	}
	for _, p := range v.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	return result{Correct: v.correct(), Attempted: v.attempted, Failed: v.failed, Metrics: m}, nil
}

// layerProbe is the topology and geometry layers timed outside the engine.
type layerProbe struct {
	buildMs, avgDegree, mcsUs, updateUs, mcsRatio float64
}

// probeLayers rebuilds every distinct topology of the batch with
// topo.Uniform, seeded as experiments.Run seeds it, and times LAMM's
// geometry (geom.MinCoverSet, then geom.Update against the cover set's
// acknowledgements) on each visited station's neighbour set.
func probeLayers(jobs []job, rec *recorder) layerProbe {
	type key struct {
		nodes  int
		radius float64
		seed   int64
	}
	seen := map[key]bool{}
	var p layerProbe
	var builds, calls, covered, sets int
	var build, mcs, upd time.Duration
	for _, j := range jobs {
		k := key{j.cfg.Nodes, j.cfg.Radius, j.cfg.Seed}
		if seen[k] {
			continue
		}
		seen[k] = true
		start := time.Now()
		tp := topo.Uniform(k.nodes, k.radius, rand.New(rand.NewSource(k.seed)))
		end := time.Now()
		parent := rec.add(0, "topo.Uniform", start, end, &j.cfg)
		build += end.Sub(start)
		builds++
		p.avgDegree += tp.AvgDegree()

		var nbrs [][]geom.Point
		for i := 0; i < tp.N() && i < geomStations; i++ {
			if nb := tp.Neighbors(i); len(nb) > 1 {
				nbrs = append(nbrs, tp.NeighborPositions(nb))
			}
		}
		sels := make([][]int, len(nbrs))
		start = time.Now()
		for i, pts := range nbrs {
			sels[i] = geom.MinCoverSet(pts, k.radius)
		}
		end = time.Now()
		rec.add(parent, "geom.MinCoverSet", start, end, &j.cfg)
		mcs += end.Sub(start)

		acks := make([][]geom.Point, len(nbrs))
		for i, pts := range nbrs {
			for _, idx := range sels[i] {
				acks[i] = append(acks[i], pts[idx])
			}
			covered += len(sels[i])
			sets += len(pts)
		}
		start = time.Now()
		for i, pts := range nbrs {
			geom.Update(pts, acks[i], k.radius)
		}
		end = time.Now()
		rec.add(parent, "geom.Update", start, end, &j.cfg)
		upd += end.Sub(start)
		calls += len(nbrs)
	}
	p.buildMs = float64(build) / 1e6 / float64(builds)
	p.avgDegree /= float64(builds)
	p.mcsUs = float64(mcs) / 1e3 / float64(calls)
	p.updateUs = float64(upd) / 1e3 / float64(calls)
	p.mcsRatio = float64(covered) / float64(sets)
	return p
}

// span is one timed call into a layer, kept in memory until the pass ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Protocol string `json:"protocol,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	EngineNs int64  `json:"engine_ns,omitempty"`
}

type recorder struct {
	base  time.Time
	spans []span
}

// add records a span and returns its id; parent 0 is the root.
func (r *recorder) add(parent int, name string, start, end time.Time, cfg *experiments.RunConfig) int {
	s := span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(r.base).Nanoseconds(), EndNs: end.Sub(r.base).Nanoseconds()}
	if cfg != nil {
		s.Protocol, s.Nodes, s.Seed = string(cfg.Protocol), cfg.Nodes, cfg.Seed
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// addRuns records a pass and its experiments.Run calls.
func (r *recorder) addRuns(name string, runs []timedRun, jobs []job, wall time.Duration) {
	start := runs[0].start
	for _, t := range runs {
		if t.start.Before(start) {
			start = t.start
		}
	}
	parent := r.add(0, name, start, start.Add(wall), nil)
	for i, t := range runs {
		id := r.add(parent, "experiments.Run", t.start, t.end, &jobs[i].cfg)
		if t.timer != nil {
			r.spans[id-1].EngineNs = t.timer.Report().WallNs
		}
	}
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.spans), path)
	return nil
}
