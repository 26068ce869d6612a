package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/experiments"
	"relmac/internal/traffic"
)

// shrunk cuts a workload to one run per cell and a short horizon, keeping
// how its inputs are generated. The paper's orderings need full-length
// runs, so the cut copy does not require them.
func shrunk(w workload) workload {
	model, slots := w.model, 1500
	if !w.sweep {
		slots = 150
	}
	w.runs, w.ordering = 1, false
	w.model = func(point int, cfg *experiments.RunConfig) {
		model(point, cfg)
		cfg.Slots = slots
	}
	return w
}

// input is the part of a run's configuration the benchmark generates.
type input struct {
	point, proto       int
	protocol           experiments.Protocol
	nodes, slots, tout int
	radius, rate, thr  float64
	mix                traffic.Mix
	capture            capture.Model
	seed               int64
}

func inputs(jobs []job) []input {
	in := make([]input, len(jobs))
	for i, j := range jobs {
		c := j.cfg
		in[i] = input{j.point, j.proto, c.Protocol, c.Nodes, c.Slots, c.Timeout,
			c.Radius, c.Rate, c.Threshold, c.Mix, c.Capture, c.Seed}
	}
	return in
}

func TestSameSeedSameResults(t *testing.T) {
	for _, w := range workloads {
		w := shrunk(w)
		a, err := w.execute(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.execute(7)
		if err != nil {
			t.Fatal(err)
		}
		ja, jb := inputs(a.jobs), inputs(b.jobs)
		if len(ja) != len(jb) {
			t.Fatalf("%s: %d jobs then %d", w.name, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i] != jb[i] {
				t.Errorf("%s: job %d differs between invocations: %+v vs %+v", w.name, i, ja[i], jb[i])
			}
		}
		if ta, tb := tallyOf(a.outs, len(w.protocols)), tallyOf(b.outs, len(w.protocols)); !ta.equal(tb) {
			t.Errorf("%s: same seed, different results: %+v vs %+v", w.name, ta, tb)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		w := shrunk(w)
		a, err := w.execute(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.execute(8)
		if err != nil {
			t.Fatal(err)
		}
		seeds := map[int64]bool{}
		for _, j := range a.jobs {
			seeds[j.cfg.Seed] = true
		}
		for _, j := range b.jobs {
			if seeds[j.cfg.Seed] {
				t.Errorf("%s: seeds 7 and 8 both generate run seed %d", w.name, j.cfg.Seed)
			}
		}
		if tallyOf(a.outs, len(w.protocols)).equal(tallyOf(b.outs, len(w.protocols))) {
			t.Errorf("%s: seeds 7 and 8 gave identical results", w.name)
		}
	}
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestReportsContractMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	check := func(name string, res result, want []struct{ Name, Unit string }) {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, contract has %d", name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
			}
		}
	}
	for _, w := range workloads {
		w := shrunk(w)
		res, err := endToEnd(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(w.name+" untraced", res, c.EndToEnd)
		res, err = perLayer(w, 3, filepath.Join(t.TempDir(), "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		check(w.name+" traced", res, c.PerLayer)
	}
}
