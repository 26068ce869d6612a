// Package good implements PRNG-neutral sinks: they count and record, but
// never draw, so hookpure stays silent.
package good

import (
	"math/rand"

	"relmac/internal/sim"
)

// counterTap holds a generator but never draws from it inside a hook —
// holding is legal, consuming is not.
type counterTap struct {
	slots int
	rng   *rand.Rand
}

func (t *counterTap) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (t *counterTap) On(ev sim.Event) {
	t.slots += len(ev.Txs())
}

// scramble draws from a locally constructed generator (clean provenance
// under the dataflow rules) and is not reachable from any hook anyway.
func scramble(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
