// Command perfbench is relmac's benchmark. It generates a workload's batch
// of simulation runs from a workload seed, times the batch through the
// program's public layer functions, checks the outputs, and prints one
// JSON result as the last line of standard output.
//
//	go run . --workload paper-density --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics;
// --trace 1 runs the traced pass, reports the per-layer metrics and writes
// its spans under .bench_build/spans/. README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-density, sparse-rate or dense-field")
	seed := flag.Int64("seed", 1, "workload seed; every run's inputs derive from it")
	seconds := flag.Int("seconds", 20, "how long the untraced pass repeats the batch")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-density|sparse-rate|dense-field --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = perLayer(w, *seed, fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minReps is the fewest timed batches a run medians over, whatever
// --seconds says.
const minReps = 3

// setupShare is the share of each timed batch's wall time spent, right
// after it, on set-up repeats, so set-up is sampled across the whole run
// rather than in one window of host speed.
const setupShare = 0.1

// endToEnd is the untraced pass. One warm-up batch generates the jobs;
// then the batch repeats for the given time, each repeat followed by
// set-up repeats, and each time metric is the median over its repeats.
// The simulated metrics must be bit-equal on every repeat.
func endToEnd(w workload, seed int64, budget time.Duration) (result, error) {
	var v verdict
	first, err := w.execute(seed)
	if err != nil {
		return result{}, err
	}
	v.checkRuns(w, first.outs)
	want := tallyOf(first.outs, len(w.protocols))
	v.checkOrdering(w, want)

	var walls, cpus, setups, calibs []time.Duration
	for start := time.Now(); len(walls) < minReps || time.Since(start) < budget; {
		calibs = append(calibs, calibrate())
		runtime.GC()
		b, err := w.execute(seed)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, b.wall)
		cpus = append(cpus, b.cpu)
		v.checkRuns(w, b.outs)
		if got := tallyOf(b.outs, len(w.protocols)); !got.equal(want) {
			v.problem("%s: repeat %d of the batch gave different simulated results", w.name, len(walls))
		}
		for spent := time.Duration(0); spent == 0 || spent < time.Duration(setupShare*float64(b.wall)); {
			runtime.GC()
			d, err := setupTime(first.jobs)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d)
			spent += d
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d batches of %d runs (wall %v), %d set-ups, host.calib_ms median %.3f\n",
		w.name, seed, len(walls), len(first.jobs), walls, len(setups), medianSeconds(calibs)*1e3)
	for _, p := range v.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	return result{
		Correct:   v.correct(),
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"sweep_s":             {medianSeconds(walls), "s"},
			"cpu_s":               {medianSeconds(cpus), "s"},
			"setup_s":             {medianSeconds(setups), "s"},
			"peak_rss_mb":         {rss, "MB"},
			"delivery_rate":       {want.deliveryRate, "ratio"},
			"contentions_per_msg": {want.contentionsPerMsg, "count"},
			"completion_slots":    {want.completionSlots, "slots"},
		},
	}, nil
}
