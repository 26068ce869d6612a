// Package good implements sinks in the sanctioned shape: they count and
// record, reading the engine only through allowlisted accessors.
// hookpure must stay silent here.
package good

import (
	"relmac/internal/sim"
)

// spanRecorder reads Env.Now and Env.Wants (read-only allowlist) and
// appends into its own receiver-rooted storage.
type spanRecorder struct {
	env  *sim.Env
	seen []sim.Slot
}

func (s *spanRecorder) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (s *spanRecorder) On(ev sim.Event) {
	if s.env != nil && s.env.Wants(sim.EvSlot) && s.env.Now() == ev.Slot {
		s.seen = append(s.seen, ev.Slot)
	}
}
