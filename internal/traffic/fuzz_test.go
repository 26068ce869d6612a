package traffic

import (
	"math"
	"math/rand"
	"testing"

	"relmac/internal/sim"
	"relmac/internal/topo"
)

// FuzzGeneratorGap drives the gap cursor with arbitrary seeds, node
// counts and rates in (0, 1] — tiny rates whose gaps overflow the
// lattice included — calling Arrivals either on the slots NextArrival
// announces or on a fixed stride that steps past them. Invariants: the
// cursor never moves backwards, NextArrival never announces a slot
// before the asked-for one, every request arrives at the slot it was
// returned for, and no slot is negative.
func FuzzGeneratorGap(f *testing.F) {
	f.Add(int64(1), uint8(20), 0.0005, uint8(0))
	f.Add(int64(2), uint8(64), 1.0, uint8(3))
	f.Add(int64(3), uint8(5), 1e-300, uint8(0))
	f.Add(int64(4), uint8(1), 0.5, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, rate float64, stride uint8) {
		rate = math.Abs(rate)
		if rate > 1 {
			rate = 1 / rate
		}
		if !(rate > 0 && rate <= 1) {
			t.Skip("rate outside (0, 1]")
		}
		n := 1 + int(nodes%64)
		tp := topo.Uniform(n, 0.3, rand.New(rand.NewSource(seed)))
		g := NewGenerator(tp)
		g.Rate = rate
		g.Seed = seed
		const horizon = 400
		type point struct {
			slot sim.Slot
			node int
		}
		cursor := func() point { return point{g.slot, g.node} }
		var last point
		for now := sim.Slot(0); now < horizon; {
			for _, r := range g.Arrivals(now, nil) {
				if r.Arrival != now {
					t.Fatalf("request %d for slot %d returned at %d", r.ID, r.Arrival, now)
				}
			}
			cur := cursor()
			if !g.done {
				if cur.slot < 0 || cur.node < 0 || cur.node >= n {
					t.Fatalf("cursor out of the lattice: %+v", cur)
				}
				if cur.slot < last.slot || (cur.slot == last.slot && cur.node < last.node) {
					t.Fatalf("cursor moved backwards: %+v -> %+v", last, cur)
				}
				if cur.slot <= now {
					t.Fatalf("cursor %+v not past the served slot %d", cur, now)
				}
			}
			last = cur
			next, ok := g.NextArrival(now + 1)
			if ok && next < now+1 {
				t.Fatalf("NextArrival(%d) = %d", now+1, next)
			}
			switch {
			case stride > 0:
				now += sim.Slot(stride)
			case !ok:
				return
			default:
				now = next
			}
		}
	})
}
