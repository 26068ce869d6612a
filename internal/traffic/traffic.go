package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

// Mix is the request-kind distribution. The three fields must be
// non-negative and sum to a positive value; they are normalised on use.
type Mix struct {
	Unicast, Multicast, Broadcast float64
}

// DefaultMix returns the paper's 0.2 / 0.4 / 0.4 traffic mix.
func DefaultMix() Mix { return Mix{Unicast: 0.2, Multicast: 0.4, Broadcast: 0.4} }

// Validate reports an error for a degenerate mix.
func (m Mix) Validate() error {
	if m.Unicast < 0 || m.Multicast < 0 || m.Broadcast < 0 {
		return fmt.Errorf("traffic: negative mix component %+v", m)
	}
	if m.Unicast+m.Multicast+m.Broadcast <= 0 {
		return fmt.Errorf("traffic: mix sums to zero")
	}
	return nil
}

// pick draws a kind from the mix.
func (m Mix) pick(rng *rand.Rand) sim.Kind {
	total := m.Unicast + m.Multicast + m.Broadcast
	u := rng.Float64() * total
	switch {
	case u < m.Unicast:
		return sim.Unicast
	case u < m.Unicast+m.Multicast:
		return sim.Multicast
	default:
		return sim.Broadcast
	}
}

// Generator implements sim.EventSource with the Table 2 arrival law:
// every (slot, node) point fires independently with probability Rate.
// It samples that Bernoulli process as a renewal process — geometric
// gaps over the slot-major, node-minor lattice of (slot, node) points,
// drawn only when an arrival fires — so empty slots cost nothing and
// NextArrival can announce the next firing slot, which lets the
// engine's event clock skip idle stretches.
//
// All of its randomness (gaps, kinds, destinations) comes from its own
// splitmix64 stream keyed by Seed, never from the engine PRNG, so the
// arrival sequence at a given seed is the same whatever MAC runs on top.
type Generator struct {
	// Topo supplies neighbor sets for destination selection.
	Topo *topo.Topology
	// Rate is the per-node, per-slot message generation probability.
	// Rates at or below zero (and NaN) generate nothing; rates above one
	// act as one. ValidateRate is the check callers run on user input.
	Rate float64
	// Mix is the kind distribution.
	Mix Mix
	// Timeout is the upper-layer deadline in slots after arrival.
	Timeout int
	// Seed keys the generator's own random stream. It is read once, on
	// the first Arrivals call; set it before the run starts.
	Seed int64

	src splitmix
	// rng draws on src; nil until the first Arrivals call, which seeds
	// the stream and places the cursor on the first firing point.
	rng    *rand.Rand
	nextID int64
	// The cursor: the next lattice point that fires. done means no point
	// ever fires again (zero rate, empty topology, or a gap past the
	// representable lattice).
	slot sim.Slot
	node int
	done bool
	// buf is the reused Arrivals result slice. The engine consumes the
	// returned requests before the next Arrivals call (the sim.Source
	// contract), so only the requests — not the slice — must survive.
	buf []*sim.Request
}

// NewGenerator builds a Generator with the paper's defaults (rate
// 0.0005, mix 0.2/0.4/0.4, timeout 100) on the given topology. Set Seed
// before the run; the zero seed is a valid but shared stream.
func NewGenerator(tp *topo.Topology) *Generator {
	return &Generator{Topo: tp, Rate: 0.0005, Mix: DefaultMix(), Timeout: 100}
}

// ValidateRate reports an error for a generation rate outside [0, 1],
// NaN included.
func ValidateRate(rate float64) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("traffic: generation rate %v outside [0, 1]", rate)
	}
	return nil
}

// Arrivals implements sim.Source: it fires every lattice point scheduled
// for this slot, drawing the next gap after each. The engine's rng is
// never used. Calls on slots before the cursor draw nothing, so stepping
// every slot and jumping to the slots NextArrival announces produce
// identical requests.
func (g *Generator) Arrivals(now sim.Slot, _ *rand.Rand) []*sim.Request {
	out := g.buf[:0]
	if g.rng == nil {
		g.start()
	}
	// Points the caller stepped past without consulting us (a run that
	// began with Step calls, or a wrapping source) are dropped; their
	// gap draws keep the stream aligned.
	for !g.done && g.slot < now {
		g.advance(1)
	}
	for !g.done && g.slot == now {
		node := g.node
		g.advance(1)
		if req := g.makeRequest(node, now); req != nil {
			out = append(out, req)
		}
	}
	g.buf = out
	return out
}

// start seeds the stream and draws the first gap from lattice point
// (0, 0).
func (g *Generator) start() {
	g.src.s = uint64(g.Seed)
	g.rng = rand.New(&g.src)
	if !(g.Rate > 0) || g.Topo.N() == 0 {
		g.done = true
		return
	}
	g.advance(0)
}

// advance moves the cursor from its current lattice point to the next
// firing one: `consumed` steps past the current point (1 after a
// firing, 0 at the start), then a geometric number of silent points.
// The gap law floor(log1p(-u)/log1p(-p)) gives P(gap=k) = (1-p)^k·p, so
// every lattice point fires independently with probability Rate. A gap
// that would carry the cursor past the largest representable slot —
// reachable for rates near zero — ends the process instead of wrapping.
func (g *Generator) advance(consumed int) {
	gap := math.Floor(math.Log1p(-g.rng.Float64()) / math.Log1p(-min(g.Rate, 1)))
	n := sim.Slot(g.Topo.N())
	idx := g.slot*n + sim.Slot(g.node) // a previous index: no overflow
	if !(gap < math.MaxInt64/2) || sim.Slot(gap)+sim.Slot(consumed) > math.MaxInt64-idx {
		g.done = true
		return
	}
	idx += sim.Slot(consumed) + sim.Slot(gap)
	g.slot = idx / n
	g.node = int(idx % n)
}

// NextArrival implements sim.EventSource: the cursor's slot, without
// touching any stream. Before the first Arrivals call it conservatively
// answers the asked-for slot, so the engine steps that slot and the
// stream starts there.
func (g *Generator) NextArrival(after sim.Slot) (sim.Slot, bool) {
	switch {
	case g.rng == nil:
		return after, true
	case g.done:
		return 0, false
	case g.slot < after:
		return after, true
	}
	return g.slot, true
}

// makeRequest builds one request originating at the node, or nil when the
// node has no neighbors to address.
func (g *Generator) makeRequest(node int, now sim.Slot) *sim.Request {
	rng := g.rng
	nb := g.Topo.Neighbors(node)
	if len(nb) == 0 {
		return nil
	}
	kind := g.Mix.pick(rng)
	var dests []int
	switch kind {
	case sim.Unicast:
		dests = []int{nb[rng.Intn(len(nb))]}
	case sim.Broadcast:
		dests = append([]int(nil), nb...)
	default: // multicast: a uniform random non-empty subset size
		k := 1 + rng.Intn(len(nb))
		dests = sampleWithoutReplacement(nb, k, rng)
	}
	g.nextID++
	return &sim.Request{
		ID:       g.nextID,
		Kind:     kind,
		Src:      node,
		Dests:    dests,
		Arrival:  now,
		Deadline: now + sim.Slot(g.Timeout),
	}
}

// sampleWithoutReplacement draws k distinct elements of src in random
// order (partial Fisher–Yates on a copy).
func sampleWithoutReplacement(src []int, k int, rng *rand.Rand) []int {
	buf := append([]int(nil), src...)
	if k > len(buf) {
		k = len(buf)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(buf)-i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf[:k]
}

// splitmix is the splitmix64 generator as an 8-byte rand.Source64: the
// stateful form of the mix64 finalizer that internal/fault hashes keys
// with. A rand.NewSource state is ~4.9 KB.
type splitmix struct{ s uint64 }

// Uint64 implements rand.Source64.
func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (x *splitmix) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed implements rand.Source.
func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }

// Script is a deterministic sim.Source for tests and examples: requests
// are released at pre-programmed slots. It implements sim.EventSource —
// release slots are known upfront — so script-driven runs benefit from
// event-driven slot skipping automatically.
type Script struct {
	byts   map[sim.Slot][]*sim.Request
	sorted []sim.Slot // release slots, ascending; nil when stale
}

// NewScript returns an empty Script.
func NewScript() *Script { return &Script{byts: map[sim.Slot][]*sim.Request{}} }

// At schedules a request for release at the given slot, assigning arrival
// and returning the request for further inspection.
func (s *Script) At(t sim.Slot, req *sim.Request) *sim.Request {
	req.Arrival = t
	if req.Deadline == 0 {
		req.Deadline = t + 1_000_000 // effectively no timeout unless set
	}
	s.byts[t] = append(s.byts[t], req)
	s.sorted = nil
	return req
}

// Arrivals implements sim.Source.
func (s *Script) Arrivals(now sim.Slot, rng *rand.Rand) []*sim.Request {
	return s.byts[now]
}

// NextArrival implements sim.EventSource: the earliest release slot at
// or after the given one.
func (s *Script) NextArrival(after sim.Slot) (sim.Slot, bool) {
	if s.sorted == nil {
		s.sorted = make([]sim.Slot, 0, len(s.byts))
		for t := range s.byts {
			s.sorted = append(s.sorted, t)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= after })
	if i == len(s.sorted) {
		return 0, false
	}
	return s.sorted[i], true
}
