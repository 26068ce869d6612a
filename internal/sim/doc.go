// Package sim implements the slotted wireless-LAN simulator the paper
// built to evaluate its protocols (§7): time advances in slots, every
// station runs a MAC state machine, and the radio channel resolves
// per-receiver reception, collisions, hidden terminals and (optionally)
// direct-sequence capture.
//
// # Channel model
//
// A transmission occupies a contiguous range of slots. In every slot the
// engine collects, for each station, the set of signals arriving from
// in-range transmitters:
//
//   - a station that is itself transmitting hears nothing (half duplex);
//   - exactly one arriving signal leaves the corresponding frame
//     decodable for that slot;
//   - two or more arriving signals collide: every overlapping frame is
//     corrupted at that receiver unless the capture model lets the
//     strongest (nearest) one survive.
//
// A frame is delivered to a receiver only if every slot of its airtime
// was decodable there. Carrier sense is physical: a station senses the
// medium busy when a transmission that started in an *earlier* slot is
// still in the air within its range. Transmissions starting in the same
// slot are mutually invisible — the classic collision vulnerability
// window of CSMA.
//
// # Determinism
//
// The engine is deterministic for a fixed seed: stations are ticked in
// ID order and all randomness flows from a single PRNG. Everything on
// the slot loop is subject to the relmaclint serial-path checks
// (simsafe, determinism): no goroutines, no sync.Pool, no wall clocks.
//
// # Hot path
//
// The engine carries several optimizations that change no output bit:
//
//   - idle-station scheduling: MACs implementing Sleeper are skipped
//     while quiescent and resynchronised on wake (Wake/WakeExtend);
//   - the event clock: Run jumps the slot counter straight to the next
//     slot at which anything can happen — the earliest scheduled
//     arrival (EventSource), wake obligation (crash/recover transition
//     via CrashScheduler) or run target — whenever the whole network
//     is asleep and the air is clear, instead of ticking empty slots
//     one by one;
//   - a structure-of-arrays transmission table: the per-transmission
//     hot scalars (sender, start, end, generation) live in parallel
//     slices that resolveSlot, computeBusy and completeSlot stream
//     through, with corruption masks recycled in place of the former
//     record free-list;
//   - per-neighbor distance tables captured at transmission start
//     instead of per-collision sqrt calls.
//
// All of them are gated by Config.Reference, which forces the original
// naive path; the equivalence tests drive both paths to identical
// transcripts. Skipped idle spans draw nothing from the PRNG and reach
// sinks as one slot event spanning the whole stretch.
//
// # One event stream
//
// Everything a run reports — submits, contention phases, frame starts,
// receptions, rounds, completions, aborts, per-slot channel state and
// the per-message lifecycle — is one stream of Event records handed to
// the Sink in Config.Sink; Combine fans it out to several sinks. Each
// sink names the kinds it wants, New takes their union once, and every
// emission site tests its kind's bit, so a kind nobody wants costs one
// bit test and a run with no sink builds no event at all.
//
// # Entry points
//
// New builds an Engine from a Config; SetMAC/AttachMACs install the
// per-station protocol state machines; Run/Step advance the clock. Env
// is the window a MAC sees; Sink is the one instrumentation surface for
// events, Profiler the one for wall time.
package sim
