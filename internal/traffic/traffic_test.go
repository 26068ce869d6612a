package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

func TestMixValidate(t *testing.T) {
	if err := DefaultMix().Validate(); err != nil {
		t.Errorf("default mix invalid: %v", err)
	}
	if (Mix{Unicast: -1, Multicast: 1, Broadcast: 1}).Validate() == nil {
		t.Error("negative component must fail")
	}
	if (Mix{}).Validate() == nil {
		t.Error("zero mix must fail")
	}
}

func TestMixPickFrequencies(t *testing.T) {
	m := DefaultMix()
	rng := rand.New(rand.NewSource(1))
	counts := map[sim.Kind]int{}
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[m.pick(rng)]++
	}
	got := func(k sim.Kind) float64 { return float64(counts[k]) / trials }
	if math.Abs(got(sim.Unicast)-0.2) > 0.01 ||
		math.Abs(got(sim.Multicast)-0.4) > 0.01 ||
		math.Abs(got(sim.Broadcast)-0.4) > 0.01 {
		t.Errorf("mix frequencies off: %v", counts)
	}
}

// TestGeneratorRate: every node's arrival count over the horizon must
// be a Binomial(slots, rate) draw — the Table 2 law — in both its mean
// and its dispersion.
func TestGeneratorRate(t *testing.T) {
	tp := topo.Uniform(100, 0.2, rand.New(rand.NewSource(2)))
	g := NewGenerator(tp)
	g.Rate = 0.01
	g.Seed = 2
	const slots = 5000
	perNode := make([]int, tp.N())
	for s := sim.Slot(0); s < slots; s++ {
		for _, r := range g.Arrivals(s, nil) {
			perNode[r.Src]++
		}
	}
	mean := slots * g.Rate
	variance := mean * (1 - g.Rate)
	var nodes, total int
	var ss float64
	for node, c := range perNode {
		if tp.Degree(node) == 0 {
			if c != 0 {
				t.Fatalf("isolated node %d generated %d requests", node, c)
			}
			continue
		}
		if d := math.Abs(float64(c) - mean); d > 5*math.Sqrt(variance) {
			t.Errorf("node %d: %d arrivals, want %.0f ± %.0f", node, c, mean, 5*math.Sqrt(variance))
		}
		nodes++
		total += c
		ss += (float64(c) - mean) * (float64(c) - mean)
	}
	if d := math.Abs(float64(total) - mean*float64(nodes)); d > 4*math.Sqrt(variance*float64(nodes)) {
		t.Errorf("total arrivals %d, want %.0f", total, mean*float64(nodes))
	}
	// The sample variance of independent binomial counts has relative
	// standard error ≈ sqrt(2/nodes) ≈ 0.15 here.
	if ratio := ss / float64(nodes-1) / variance; ratio < 0.6 || ratio > 1.5 {
		t.Errorf("per-node count variance / binomial variance = %.2f, want ≈1", ratio)
	}
}

// TestEventDrivenRate: consumed the way the engine's event clock
// consumes it — Arrivals called only on the slots NextArrival announces
// — the generator still delivers the Table 2 rate.
func TestEventDrivenRate(t *testing.T) {
	tp := topo.Uniform(100, 0.2, rand.New(rand.NewSource(2)))
	g := NewGenerator(tp)
	g.Rate = 0.01
	g.Seed = 2
	const slots = 5000
	total, calls := 0, 0
	for s := sim.Slot(0); s < slots; {
		next, ok := g.NextArrival(s)
		if !ok || next >= slots {
			break
		}
		reqs := g.Arrivals(next, nil)
		if len(reqs) == 0 {
			t.Fatalf("NextArrival announced slot %d but Arrivals returned nothing", next)
		}
		total += len(reqs)
		calls++
		s = next + 1
	}
	// Expectation: 100 nodes × 0.01 × 5000 = 5000 arrivals (minus the few
	// isolated-node skips). Allow 10%.
	if total < 4300 || total > 5500 {
		t.Errorf("arrivals = %d, want ≈5000", total)
	}
	if calls >= slots {
		t.Errorf("Arrivals called on %d of %d slots; the clock skipped nothing", calls, slots)
	}
}

// TestGeneratorKindMix: the generated kinds follow the 0.2/0.4/0.4 mix.
func TestGeneratorKindMix(t *testing.T) {
	tp := topo.Uniform(100, 0.2, rand.New(rand.NewSource(8)))
	g := NewGenerator(tp)
	g.Rate = 0.05
	g.Seed = 8
	counts := map[sim.Kind]int{}
	total := 0
	for s := sim.Slot(0); s < 5000; s++ {
		for _, r := range g.Arrivals(s, nil) {
			counts[r.Kind]++
			total++
		}
	}
	got := func(k sim.Kind) float64 { return float64(counts[k]) / float64(total) }
	if math.Abs(got(sim.Unicast)-0.2) > 0.01 ||
		math.Abs(got(sim.Multicast)-0.4) > 0.01 ||
		math.Abs(got(sim.Broadcast)-0.4) > 0.01 {
		t.Errorf("kind frequencies off over %d requests: %v", total, counts)
	}
}

func TestGeneratorRequestShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := topo.Uniform(100, 0.2, rng)
	g := NewGenerator(tp)
	g.Rate = 1 // every node, every slot
	reqs := g.Arrivals(7, nil)
	if len(reqs) == 0 {
		t.Fatal("no arrivals at rate 1")
	}
	seen := map[int64]bool{}
	for _, r := range reqs {
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
		if r.Arrival != 7 || r.Deadline != 107 {
			t.Fatalf("arrival/deadline wrong: %+v", r)
		}
		nb := tp.Neighbors(r.Src)
		switch r.Kind {
		case sim.Unicast:
			if len(r.Dests) != 1 {
				t.Fatalf("unicast with %d dests", len(r.Dests))
			}
		case sim.Broadcast:
			if len(r.Dests) != len(nb) {
				t.Fatalf("broadcast dests %d != degree %d", len(r.Dests), len(nb))
			}
		case sim.Multicast:
			if len(r.Dests) < 1 || len(r.Dests) > len(nb) {
				t.Fatalf("multicast dests %d out of [1,%d]", len(r.Dests), len(nb))
			}
		}
		// All destinations must be distinct neighbors of the source.
		isNb := map[int]bool{}
		for _, j := range nb {
			isNb[j] = true
		}
		dseen := map[int]bool{}
		for _, d := range r.Dests {
			if !isNb[d] {
				t.Fatalf("dest %d is not a neighbor of %d", d, r.Src)
			}
			if dseen[d] {
				t.Fatal("duplicate destination")
			}
			dseen[d] = true
		}
	}
}

func TestGeneratorSkipsIsolatedNodes(t *testing.T) {
	tp := topo.Grid(2, 1, 0.1) // two nodes 1.0 apart: both isolated
	g := NewGenerator(tp)
	g.Rate = 1
	if got := g.Arrivals(0, nil); len(got) != 0 {
		t.Errorf("isolated nodes generated requests: %v", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := []int{1, 2, 3, 4, 5}
	got := sampleWithoutReplacement(src, 3, rng)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("duplicate in sample")
		}
		seen[v] = true
	}
	if got := sampleWithoutReplacement(src, 99, rng); len(got) != 5 {
		t.Errorf("oversized k must clamp: %d", len(got))
	}
	// Source must be untouched.
	for i, v := range []int{1, 2, 3, 4, 5} {
		if src[i] != v {
			t.Fatal("source slice mutated")
		}
	}
}

func TestScriptSource(t *testing.T) {
	s := NewScript()
	r1 := s.At(5, &sim.Request{ID: 1, Src: 0, Dests: []int{1}})
	s.At(5, &sim.Request{ID: 2, Src: 1, Dests: []int{0}})
	rng := rand.New(rand.NewSource(6))
	if len(s.Arrivals(4, rng)) != 0 {
		t.Error("early arrivals")
	}
	got := s.Arrivals(5, rng)
	if len(got) != 2 || got[0] != r1 {
		t.Errorf("Arrivals(5) = %v", got)
	}
	if r1.Arrival != 5 {
		t.Error("At must stamp the arrival slot")
	}
	if r1.Deadline <= 5 {
		t.Error("default deadline must be far in the future")
	}
	withDeadline := s.At(9, &sim.Request{ID: 3, Deadline: 42})
	if withDeadline.Deadline != 42 {
		t.Error("explicit deadline must be preserved")
	}
}

// arrival is one request in comparable form.
type arrival struct {
	slot     sim.Slot
	id       int64
	src      int
	kind     sim.Kind
	dests    string
	deadline sim.Slot
}

// record converts the requests Arrivals returned for slot now.
func record(now sim.Slot, reqs []*sim.Request) []arrival {
	var out []arrival
	for _, r := range reqs {
		out = append(out, arrival{now, r.ID, r.Src, r.Kind, fmt.Sprint(r.Dests), r.Deadline})
	}
	return out
}

// sparseGenerator is a sparse-traffic generator on a fixed topology.
func sparseGenerator() *Generator {
	tp := topo.Uniform(60, 0.2, rand.New(rand.NewSource(7)))
	g := NewGenerator(tp)
	g.Rate = 0.002
	g.Seed = 99
	return g
}

// TestGeneratorSkipNeutral is the contract behind slot skipping: calling
// Arrivals on every slot and calling it only on the slots NextArrival
// announces must produce identical requests and leave the generator's
// stream in the identical state.
func TestGeneratorSkipNeutral(t *testing.T) {
	const slots = 4000
	var dense []arrival
	gd := sparseGenerator()
	for s := sim.Slot(0); s < slots; s++ {
		dense = append(dense, record(s, gd.Arrivals(s, nil))...)
	}

	var sparse []arrival
	gs := sparseGenerator()
	for s := sim.Slot(0); s < slots; {
		next, ok := gs.NextArrival(s)
		if !ok || next >= slots {
			break
		}
		sparse = append(sparse, record(next, gs.Arrivals(next, nil))...)
		s = next + 1
	}

	if len(dense) == 0 {
		t.Fatal("no arrivals generated; the comparison is vacuous")
	}
	if len(dense) != len(sparse) {
		t.Fatalf("dense produced %d arrivals, sparse %d", len(dense), len(sparse))
	}
	for i := range dense {
		if dense[i] != sparse[i] {
			t.Fatalf("arrival %d diverged: dense %+v, sparse %+v", i, dense[i], sparse[i])
		}
	}
	if gd.src != gs.src {
		t.Fatalf("stream state diverged after the run: %x vs %x", gd.src.s, gs.src.s)
	}
}

// TestGeneratorIgnoresEngineRand: Arrivals never draws from the engine
// PRNG it is passed — a run handed a live rng leaves it untouched and
// produces exactly the requests of a run handed nil.
func TestGeneratorIgnoresEngineRand(t *testing.T) {
	engine := rand.New(rand.NewSource(5))
	withRng, withNil := sparseGenerator(), sparseGenerator()
	var a, b []arrival
	for s := sim.Slot(0); s < 3000; s++ {
		a = append(a, record(s, withRng.Arrivals(s, engine))...)
		b = append(b, record(s, withNil.Arrivals(s, nil))...)
	}
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("requests depend on the engine rng: %d vs %d", len(a), len(b))
	}
	if got, want := engine.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
		t.Fatal("Arrivals consumed the engine PRNG")
	}
}

// TestGeneratorSeed: the stream is keyed by Seed alone.
func TestGeneratorSeed(t *testing.T) {
	run := func(seed int64) string {
		g := sparseGenerator()
		g.Seed = seed
		var out []arrival
		for s := sim.Slot(0); s < 3000; s++ {
			out = append(out, record(s, g.Arrivals(s, nil))...)
		}
		return fmt.Sprint(out)
	}
	if run(1) != run(1) {
		t.Error("the same seed produced different arrivals")
	}
	if run(1) == run(2) {
		t.Error("different seeds produced the same arrivals")
	}
}

// TestGeneratorTinyRate: a rate whose first gap overflows the lattice
// generates nothing and announces no arrival, rather than wrapping the
// cursor negative and firing every point.
func TestGeneratorTinyRate(t *testing.T) {
	tp := topo.Uniform(20, 0.3, rand.New(rand.NewSource(1)))
	for _, rate := range []float64{1e-300, 5e-324, 0, math.NaN()} {
		g := NewGenerator(tp)
		g.Rate = rate
		total := 0
		for s := sim.Slot(0); s < 200_000; s++ {
			total += len(g.Arrivals(s, nil))
		}
		if total != 0 {
			t.Errorf("rate %g: %d arrivals, want 0", rate, total)
		}
		if next, ok := g.NextArrival(200_000); ok {
			t.Errorf("rate %g: NextArrival = %d, true; want no further arrival", rate, next)
		}
	}
}

func TestValidateRate(t *testing.T) {
	for _, ok := range []float64{0, 1e-300, 0.0005, 1} {
		if err := ValidateRate(ok); err != nil {
			t.Errorf("ValidateRate(%g) = %v", ok, err)
		}
	}
	for _, bad := range []float64{-0.1, 1.0000001, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ValidateRate(bad) == nil {
			t.Errorf("ValidateRate(%g) accepted", bad)
		}
	}
}

// TestScriptNextArrival pins the EventSource view of a Script.
func TestScriptNextArrival(t *testing.T) {
	s := NewScript()
	s.At(30, &sim.Request{ID: 1, Src: 0, Kind: sim.Broadcast})
	s.At(10, &sim.Request{ID: 2, Src: 1, Kind: sim.Broadcast})
	if got, ok := s.NextArrival(0); !ok || got != 10 {
		t.Fatalf("NextArrival(0) = %d,%v, want 10,true", got, ok)
	}
	if got, ok := s.NextArrival(11); !ok || got != 30 {
		t.Fatalf("NextArrival(11) = %d,%v, want 30,true", got, ok)
	}
	if _, ok := s.NextArrival(31); ok {
		t.Fatal("NextArrival past the last release must report ok=false")
	}
	// A later At invalidates the sorted view.
	s.At(50, &sim.Request{ID: 3, Src: 0, Kind: sim.Broadcast})
	if got, ok := s.NextArrival(31); !ok || got != 50 {
		t.Fatalf("NextArrival(31) = %d,%v, want 50,true", got, ok)
	}
}
