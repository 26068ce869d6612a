// Package bad implements sinks that steer the simulation they are
// supposed to observe: each reaches a mutating sim.Env dispatcher,
// re-entering the engine's per-slot bookkeeping from measurement code.
// The PRNG half of hookpure has its own fixtures (prngflow for sinks,
// profpure for profilers).
//
// The Env.Report* emitters hand their event to the attached sinks, so
// every hook that calls one also reaches, through that dispatch, the
// draw in rollTap.On — a second, genuine finding on the same line.
package bad

import (
	"math/rand"

	"relmac/internal/sim"
)

// rollTap draws from the global stream inside its hook.
type rollTap struct{}

func (rollTap) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (rollTap) On(ev sim.Event) { // want `hook \(bad\.rollTap\)\.On reaches a PRNG draw`
	_ = rand.Intn(8)
}

// reinjector aborts a request from inside its hook — a direct
// engine-state mutation.
type reinjector struct {
	env *sim.Env
	req *sim.Request
}

func (r *reinjector) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (r *reinjector) On(ev sim.Event) { // want `hook \(bad\.reinjector\)\.On reaches a sim\.Engine/Env mutation` want `hook \(bad\.reinjector\)\.On reaches a PRNG draw`
	r.env.ReportAbort(r.req, sim.AbortDeadline)
}

// dropForger reaches the mutation through a helper; the call-graph
// closure still attributes it to the hook.
type dropForger struct {
	env *sim.Env
}

func (d *dropForger) Kinds() sim.KindSet { return sim.KindsOf(sim.EvSlot) }

func (d *dropForger) On(ev sim.Event) { // want `hook \(bad\.dropForger\)\.On reaches a sim\.Engine/Env mutation` want `hook \(bad\.dropForger\)\.On reaches a PRNG draw`
	forge(d.env)
}

func forge(env *sim.Env) {
	env.ReportResponseDrop(nil)
}
