// Package bad implements sinks that consume pseudo-randomness, the PRNG
// half of the contract hookpure enforces: a draw inside a hook shifts
// every later draw in the run, so attaching the sink changes the
// trajectory.
package bad

import (
	"math/rand"

	"relmac/internal/sim"
)

// jitterTap draws directly from a field-held generator inside its hook:
// the receiver-rooted *rand.Rand is tainted provenance.
type jitterTap struct {
	rng *rand.Rand
}

func (t *jitterTap) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (t *jitterTap) On(ev sim.Event) { // want `hook \(bad\.jitterTap\)\.On reaches a PRNG draw`
	_ = t.rng.Intn(8)
}

// globalTap reaches the global math/rand stream two calls deep; the
// call-graph closure still attributes the draw to the hook.
type globalTap struct{}

func (globalTap) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (globalTap) On(ev sim.Event) { // want `hook \(bad\.globalTap\)\.On reaches a PRNG draw`
	jitter()
}

func jitter() int { return pick() }

func pick() int { return rand.Intn(3) }
