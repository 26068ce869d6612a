// Package traffic generates the workload of the paper's simulations
// (§7, Table 2): every node independently generates a message per slot
// with probability equal to the message generation rate (default
// 0.0005/node/slot), and each message is a unicast with probability 0.2,
// a multicast with probability 0.4 and a broadcast with probability 0.4.
// Messages carry an upper-layer timeout (default 100 slots).
//
// # Arrival mode
//
// Generator samples the Bernoulli arrival law one way: as the
// equivalent renewal process — geometric inter-arrival gaps over the
// slot-major, node-minor lattice of (slot, node) points, drawn only when
// an arrival fires. Every lattice point still fires independently with
// probability equal to the rate, so the marginals are Table 2's. Empty
// slots cost nothing, and NextArrival announces the next firing slot,
// which is what lets the engine's event clock (sim.EventSource) jump
// whole idle stretches in every run. A gap too large for the slot
// counter (rates near zero) ends the process: NextArrival then reports
// no further arrival.
//
// # Determinism
//
// The generator owns its randomness: an 8-byte splitmix64 stream keyed
// by Generator.Seed draws the gaps, the kinds and the destinations. The
// *rand.Rand the engine passes to Arrivals is ignored, so the arrival
// sequence at a given seed does not depend on how many backoff or
// capture draws the MAC layer made — every protocol run at that seed
// faces the same traffic, the paired design the paper's comparisons
// assume. experiments.TrafficSeed derives the key from a run seed. The
// package never reads the clock. Arrival order within a slot is node-ID
// order.
//
// # Entry points
//
// NewGenerator builds the Table 2 workload on a topology; Script is the
// deterministic fixed-schedule source for tests and examples. Both
// implement sim.EventSource.
package traffic
