// Package fix exercises the obswiring check against the real sim Sink
// interface.
package fix

import "relmac/internal/sim"

// fanOut dispatches events by hand, bypassing MultiSink's kind filter
// and panic attribution: flagged.
func fanOut(sinks []sim.Sink, ev sim.Event) {
	for _, s := range sinks { // want `hand-rolled sink fan-out.*sim\.Combine`
		s.On(ev)
	}
}

// fanOutArray dispatches over an array just the same: flagged.
func fanOutArray(sinks [2]sim.Sink, ev sim.Event) {
	for _, s := range sinks { // want `hand-rolled sink fan-out`
		if s.Kinds().Has(ev.Kind) {
			s.On(ev)
		}
	}
}

// collect only gathers sinks and hands them to the sanctioned
// combinator: not a dispatch loop.
func collect(sinks []sim.Sink) sim.Sink {
	kept := make([]sim.Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return sim.Combine(kept...)
}
