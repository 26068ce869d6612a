package sim

import (
	"fmt"
	"math/rand"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/topo"
)

// Slot is a point in slotted simulation time.
type Slot int64

// Kind classifies MAC service requests, mirroring the paper's traffic mix
// (unicast 0.2 / multicast 0.4 / broadcast 0.4).
type Kind uint8

// Request kinds.
const (
	Unicast Kind = iota
	Multicast
	Broadcast
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Request is a MAC service request handed to a station by the upper
// layer: deliver a data frame to the given set of neighbors before the
// deadline.
type Request struct {
	// ID uniquely identifies the message across the whole simulation.
	ID int64
	// Kind is unicast, multicast or broadcast. Broadcast is simply a
	// multicast to all neighbors (paper §1 treats broadcast as a special
	// case of multicast).
	Kind Kind
	// Src is the requesting station.
	Src int
	// Dests are the intended receivers (neighbor station IDs).
	Dests []int
	// Arrival is the slot the request reached the MAC layer.
	Arrival Slot
	// Deadline is the slot after which the request is considered timed
	// out by the upper layer (Arrival + Timeout in the paper's setup).
	Deadline Slot
}

// Expired reports whether the request has passed its deadline at the
// given slot.
func (r *Request) Expired(now Slot) bool { return now > r.Deadline }

// AbortReason classifies why a sending MAC abandoned a request — the
// typed half of the graceful-degradation accounting: under an impaired
// channel the interesting question is not just how often a protocol
// gives up but which budget it exhausted first.
type AbortReason uint8

// Abort reasons.
const (
	// AbortDeadline: the request outlived its upper-layer timeout, either
	// waiting in the queue or mid-service.
	AbortDeadline AbortReason = iota
	// AbortRetries: the protocol exhausted its retry budget
	// (mac.Config.RetryLimit contention phases) before serving every
	// receiver.
	AbortRetries
	numAbortReasons
)

// NumAbortReasons is the number of distinct abort reasons, for
// reason-indexed counter arrays.
const NumAbortReasons = int(numAbortReasons)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortDeadline:
		return "deadline"
	case AbortRetries:
		return "retries"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// MAC is a per-station protocol state machine. The engine drives it with
// one Tick per slot and delivers successfully decoded frames.
type MAC interface {
	// Tick is invoked once per slot. The MAC may start one transmission
	// by returning a non-nil frame; the engine derives its airtime from
	// the frame type. Tick must return nil while the station is already
	// transmitting (the engine panics otherwise, as that is a protocol
	// implementation bug).
	Tick(env *Env) *frames.Frame
	// Deliver is invoked at the end of the slot in which the station
	// successfully decoded the frame.
	Deliver(env *Env, f *frames.Frame)
	// Submit hands a new service request to the MAC.
	Submit(env *Env, req *Request)
}

// Sleeper is the optional MAC extension behind idle-station scheduling.
// A MAC that implements it is skipped by the engine while quiescent: no
// Tick calls, hence no per-slot carrier-sense bookkeeping for the ~90% of
// stations that have nothing to do in a typical run. This is safe for
// bit-identity only because a quiescent MAC's Tick draws no randomness
// from the engine PRNG and its only per-slot state — the idle-run counter
// behind the DIFS rule — is a pure function of the channel history, which
// the engine tracks for every station anyway and hands back through Wake
// or WakeExtend.
//
// The engine wakes a sleeping station when a request is submitted to it,
// when it decodes a frame, and at each of its crash/recover transitions
// (CrashScheduler); everything else that can change MAC state flows
// through those entry points.
type Sleeper interface {
	// Quiescent reports whether the MAC has no pending work at or after
	// the given slot: nothing in service, nothing queued, no response
	// scheduled. A quiescent MAC's Tick must be a no-op apart from
	// carrier-sense observation and must not touch the engine PRNG.
	Quiescent(after Slot) bool
	// Wake is called right before the first Tick after a stretch of
	// skipped slots during which at least one busy slot occurred.
	// idleRun is the number of consecutive slots the station's carrier
	// was idle up to and including the previous slot — exactly the
	// value its channel history would hold had it observed every
	// skipped slot.
	Wake(idleRun int)
	// WakeExtend is the additive variant of Wake, called when the
	// carrier stayed idle for the entire skipped stretch: the MAC must
	// extend its retained idle run by the given number of skipped
	// slots. The engine cannot use the absolute form here because a MAC
	// that froze through an earlier crash window (its Tick is withheld
	// while down) legitimately disagrees with the channel's absolute
	// idle run; only the increment is common knowledge.
	WakeExtend(skipped int)
}

// Source generates traffic. Arrivals is called once per slot per
// simulation and returns the requests arriving at that slot. The engine
// consumes the returned slice before the next call, so implementations
// may reuse its backing array; only the requests themselves must survive.
type Source interface {
	Arrivals(now Slot, rng *rand.Rand) []*Request
}

// EventSource is the optional Source extension behind event-driven slot
// skipping. NextArrival lets the engine ask "when is your next request
// due?" without simulating the empty slots in between; a Source that
// cannot answer simply doesn't implement it, and Run falls back to
// per-slot stepping.
//
// The contract that keeps skipping bit-identical to per-slot execution:
// Arrivals must be PRNG-free on slots where it returns no requests, and
// NextArrival must not touch any PRNG at all. NextArrival(after) returns
// the earliest slot ≥ after at which Arrivals may return requests (ok
// false means never again); returning a conservative earlier slot is
// legal — the engine just steps that slot normally.
type EventSource interface {
	Source
	NextArrival(after Slot) (Slot, bool)
}

// CrashScheduler is the optional Impairment extension that lets
// idle-station scheduling and slot skipping coexist with node crashes.
// NextCrashChange reports the next slot strictly after now at which the
// station's up/down state flips (ok false when the impairment has no
// crash axis). The engine registers that slot as a wake obligation when
// the station falls asleep, so a sleeping MAC is resynchronised at every
// transition and its channel history freezes through down windows
// exactly as the reference path's does. An Impairment without this
// method disables idle-skip entirely, as before.
//
// NextCrashChange must advance the impairment's internal crash schedule
// exactly as a Down query at the same slot would, so lazily materialized
// schedules stay byte-identical between the skipping and reference
// paths.
type CrashScheduler interface {
	Impairment
	NextCrashChange(station int, now Slot) (Slot, bool)
}

// Impairment is the pluggable fault model hook (internal/fault): channel
// error processes and node failures beyond the collision-driven loss the
// capture models govern. The engine consults it at two points per slot —
// crashed stations are skipped before their MAC ticks, and completed
// frames are erased per receiver before delivery. Implementations must
// be deterministic from their own seed and must not touch the engine
// PRNG, so a nil (or inert) impairment leaves runs byte-identical to an
// unimpaired simulation.
type Impairment interface {
	// Down reports whether the station is crashed at the given slot. A
	// down station neither transmits (its MAC is not ticked, so pending
	// CTS/ACK responses stay unsent) nor decodes arriving frames.
	Down(station int, now Slot) bool
	// Erase reports whether the frame, completing at slot now, is erased
	// at the given receiver by a channel error on the sender→receiver
	// link. It is consulted only for frames that survived collision
	// resolution.
	Erase(f *frames.Frame, sender, receiver int, now Slot) bool
}

// crashNoter is implemented by impairments that want receptions lost to
// a crashed receiver attributed to the crash axis (fault.Injector does).
type crashNoter interface {
	NoteCrashDrop()
}

// Config assembles an Engine.
type Config struct {
	// Topo is the station layout; required.
	Topo *topo.Topology
	// Timing holds frame airtimes; zero value is replaced by
	// frames.DefaultTiming().
	Timing frames.Timing
	// Capture is the collision capture model; nil means capture.None.
	Capture capture.Model
	// ErrRate is an independent per-frame, per-receiver erasure
	// probability modelling transmission errors other than collisions
	// (the paper's analysis folds these into q). Default 0.
	ErrRate float64
	// Seed initialises the engine PRNG.
	Seed int64
	// Impairment, when non-nil, injects channel errors and node crashes
	// (internal/fault). Nil keeps the unimpaired fast path.
	Impairment Impairment
	// Sink receives the run's event stream (see Event); nil keeps every
	// emission site a single bit test. Combine several with Combine.
	Sink Sink
	// SlotHook, when non-nil, runs at the start of every slot before
	// traffic arrivals and MAC ticks. Mobility drivers use it to advance
	// node positions and swap refreshed topologies in. A slot hook
	// disables event-driven slot skipping (the hook must observe every
	// slot), but not idle-station scheduling.
	SlotHook func(now Slot, e *Engine)
	// Reference disables the engine's hot-path optimizations —
	// idle-station scheduling, event-driven slot skipping, transmission
	// storage recycling and the cached per-neighbor distances — and runs
	// the original naive resolution path. Output is bit-identical either
	// way; the reference path exists so the equivalence tests can prove
	// it and cmd/relbench can measure the gap.
	Reference bool
	// Profiler, when non-nil, receives phase-boundary marks from the
	// slot loop (see profiler.go) — the runtime profiling feed behind
	// internal/prof. Profilers observe wall time only: they are
	// PRNG-neutral and mutation-free (hookpure-checked), so output is
	// byte-identical with and without one attached. Nil keeps every
	// mark site a single comparison.
	Profiler Profiler
}

// Engine is the slotted channel simulator.
type Engine struct {
	topo    *topo.Topology
	timing  frames.Timing
	capture capture.Model
	errRate float64
	imp     Impairment
	rng     *rand.Rand
	// sink receives the events of the kinds in wants, the set read
	// once from Config.Sink; an emission site tests its kind's bit.
	sink     Sink
	wants    KindSet
	slotHook func(now Slot, e *Engine)

	now  Slot
	macs []MAC
	envs []Env

	// Transmissions in the air, stored as a structure of arrays: row r
	// of the parallel tx* slices describes one transmission, rows
	// [0,txN) are live, and completeSlot compacts rows in place keeping
	// start order stable (the resolution order the reference path
	// produces). The hot per-slot scans (resolveSlot, computeBusy,
	// completeSlot) stream the scalar columns without pointer chasing;
	// corruption masks parked in rows ≥ txN are recycled by the next
	// startTx, replacing the former record free-list.
	txFrame   []*frames.Frame
	txSender  []int32
	txStart   []Slot
	txEnd     []Slot   // inclusive last slot
	txRecv    [][]int  // in-range stations at start, sorted
	txCorrupt [][]bool // parallel to txRecv
	// txNDists are the sender→receiver distances parallel to txRecv,
	// shared with the topology's precomputed table; valid only while
	// txTopoGen matches the engine's. After a mid-flight topology swap
	// the resolver falls back to live distance queries, preserving the
	// pre-cache semantics exactly.
	txNDists  [][]float64
	txTopoGen []uint64
	txN       int

	// txBusyUntil[i] is the last slot station i's own transmission
	// occupies, or a past slot when idle.
	txBusyUntil []Slot

	// scratch buffers reused every slot.
	sigTx   [][]int32 // per station: row indices into the tx table
	sigRx   [][]int32 // per station: receiver index within that row
	dists   []float64
	touched []int // stations with ≥1 signal this slot

	// airScratch is the reused airing list of slot events; slotCollided
	// records whether resolveSlot saw a ≥2-signal overlap at any
	// listening station in the current slot.
	airScratch   []AiringTx
	slotCollided bool

	// Carrier sense is epoch-stamped rather than cleared: station i
	// senses the medium busy at the current slot iff busyStamp[i] == now,
	// so computeBusy only touches the neighbors of ongoing transmitters
	// instead of wiping an O(stations) array every slot. prevBusy[i] is
	// the busy slot preceding busyStamp[i]; together they answer "most
	// recent busy slot ≤ now-1", the quantity the wake-time idle-run
	// reconstruction needs even when the wake slot itself is busy.
	busyStamp []Slot
	prevBusy  []Slot

	// topoGen counts SetTopology swaps; cached per-transmission distance
	// tables are only trusted while their generation matches.
	topoGen uint64

	// Idle-station scheduling (see Sleeper). sleepers[i] is non-nil iff
	// macs[i] implements Sleeper; asleep marks stations currently skipped
	// by the tick loop; resync marks freshly woken stations whose channel
	// history must be restored before their next Tick; sleptAt[i] is the
	// slot station i last fell asleep in (the last slot its Tick
	// observed), consulted by the restore to pick the absolute (Wake)
	// or additive (WakeExtend) reconstruction.
	sleepOK  bool
	sleepers []Sleeper
	asleep   []bool
	resync   []bool
	sleptAt  []Slot
	// awake is the tick loop's worklist: the station IDs that were awake
	// at the last rebuild, in ascending ID order. Stations that fell
	// asleep since linger until the next rebuild and are filtered by the
	// asleep check; awakeDirty forces a rebuild whenever a station wakes
	// or the MAC set changes, so no awake station is ever missed.
	awake      []int
	awakeDirty bool
	// numAttached counts non-nil MACs, numAsleep the currently sleeping
	// ones; their equality is the "whole network asleep" test behind
	// event-driven slot skipping.
	numAttached int
	numAsleep   int

	// The event clock's wake obligations: a binary min-heap over
	// (wakeAt, wakeWho) ordered by slot then station, holding at most
	// one live entry per station (nextWake[i] is its slot, or -1).
	// Obligations are registered when a station falls asleep under a
	// CrashScheduler impairment — its next up/down transition — and
	// drained at the top of every step. A station woken early by other
	// means leaves its entry behind; draining it later is an idempotent
	// no-op (or a harmless spurious wake of a re-slept station).
	wakeAt   []Slot
	wakeWho  []int
	nextWake []Slot
	// crashSched is non-nil iff the impairment supports crash-transition
	// wake obligations; with an impairment lacking it, sleepOK is false.
	crashSched CrashScheduler

	// reference pins the naive path (Config.Reference).
	reference bool

	// prof receives phase-boundary marks (Config.Profiler); nil-checked
	// at every mark site via enter().
	prof Profiler
}

// New builds an Engine from the configuration. MACs must be attached with
// SetMAC or AttachMACs before Run or Step is called.
func New(cfg Config) *Engine {
	if cfg.Topo == nil {
		panic("sim: Config.Topo is required")
	}
	tm := cfg.Timing
	if tm == (frames.Timing{}) {
		tm = frames.DefaultTiming()
	}
	if err := tm.Validate(); err != nil {
		panic(err)
	}
	cap := cfg.Capture
	if cap == nil {
		cap = capture.None{}
	}
	var wants KindSet
	if cfg.Sink != nil {
		wants = cfg.Sink.Kinds()
	}
	hook := cfg.SlotHook
	n := cfg.Topo.N()
	cs, _ := cfg.Impairment.(CrashScheduler)
	e := &Engine{
		topo:        cfg.Topo,
		timing:      tm,
		capture:     cap,
		errRate:     cfg.ErrRate,
		imp:         cfg.Impairment,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		sink:        cfg.Sink,
		wants:       wants,
		slotHook:    hook,
		macs:        make([]MAC, n),
		envs:        make([]Env, n),
		txBusyUntil: make([]Slot, n),
		sigTx:       make([][]int32, n),
		sigRx:       make([][]int32, n),
		busyStamp:   make([]Slot, n),
		prevBusy:    make([]Slot, n),
		sleepers:    make([]Sleeper, n),
		asleep:      make([]bool, n),
		resync:      make([]bool, n),
		sleptAt:     make([]Slot, n),
		nextWake:    make([]Slot, n),
		awake:       make([]int, 0, n),
		awakeDirty:  true,
		crashSched:  cs,
		reference:   cfg.Reference,
		prof:        cfg.Profiler,
		// Idle-skip needs every crash transition of a sleeping station
		// to be a wake obligation: a crashed station's MAC is not ticked
		// while down, so its channel history freezes — a gap the
		// continuous lastBusy reconstruction alone cannot reproduce. An
		// impairment that cannot announce its transitions
		// (CrashScheduler) therefore pins the per-slot path.
		sleepOK: !cfg.Reference && (cfg.Impairment == nil || cs != nil),
	}
	for i := 0; i < n; i++ {
		e.envs[i] = Env{engine: e, node: i}
		e.txBusyUntil[i] = -1
		e.busyStamp[i] = -1
		e.prevBusy[i] = -1
		e.sleptAt[i] = -1
		e.nextWake[i] = -1
	}
	return e
}

// SetMAC installs the MAC state machine for station i.
func (e *Engine) SetMAC(i int, m MAC) {
	if (e.macs[i] == nil) != (m == nil) {
		if m == nil {
			e.numAttached--
		} else {
			e.numAttached++
		}
	}
	if e.asleep[i] {
		e.asleep[i] = false
		e.numAsleep--
	}
	e.resync[i] = false
	e.macs[i] = m
	e.sleepers[i], _ = m.(Sleeper)
	e.awakeDirty = true
}

// AttachMACs installs a MAC for every station using the factory.
func (e *Engine) AttachMACs(factory func(node int, env *Env) MAC) {
	for i := range e.macs {
		e.SetMAC(i, factory(i, &e.envs[i]))
	}
}

// Now returns the current slot.
func (e *Engine) Now() Slot { return e.now }

// Topo returns the topology being simulated.
func (e *Engine) Topo() *topo.Topology { return e.topo }

// SetTopology swaps in a refreshed topology snapshot — the mobility
// model's beacon-epoch update. The station count must not change.
// Transmissions already in the air keep the receiver sets captured at
// their start, which mirrors physics: a frame launched toward where a
// node was is received by whoever was in range when it propagated.
func (e *Engine) SetTopology(tp *topo.Topology) {
	if tp.N() != e.topo.N() {
		panic("sim: SetTopology must preserve the station count")
	}
	e.topo = tp
	e.topoGen++
}

// Timing returns the frame airtimes in use.
func (e *Engine) Timing() frames.Timing { return e.timing }

// Rand returns the engine PRNG (shared; callbacks execute sequentially).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Run advances the simulation by the given number of slots, feeding
// arrivals from src (which may be nil for a closed system).
//
// Run is the event clock's home: whenever nothing can happen in the
// current slot — every attached MAC asleep, no transmission in the air,
// no slot hook, and a source that can announce its next arrival
// (EventSource, or nil) — the slot counter jumps straight to the next
// slot at which anything can: the earliest scheduled arrival, the
// earliest wake obligation, or the end of the run. The jump performs no
// PRNG draws and emits one event at most — the idle slot span, for a
// sink wanting slot events — so output is byte-identical to stepping
// the skipped slots one by one.
func (e *Engine) Run(slots int, src Source) {
	if e.prof != nil {
		e.prof.RunStart()
	}
	target := e.now + Slot(slots)
	es, _ := src.(EventSource)
	for e.now < target {
		if next := e.skipTarget(src, es, target); next > e.now {
			e.enter(PhaseIdleSkip)
			e.skipTo(next)
			e.enter(PhaseUntracked)
			continue
		}
		e.step(src)
	}
	if e.prof != nil {
		e.prof.RunEnd()
	}
}

// Step advances the simulation by one slot without external arrivals.
func (e *Engine) Step() {
	if e.prof != nil {
		e.prof.RunStart()
	}
	e.step(nil)
	if e.prof != nil {
		e.prof.RunEnd()
	}
}

// skipTarget returns the next slot at which anything can happen, or
// e.now when the current slot must be simulated.
func (e *Engine) skipTarget(src Source, es EventSource, target Slot) Slot {
	if !e.sleepOK || e.slotHook != nil || e.txN != 0 ||
		e.numAsleep != e.numAttached || (src != nil && es == nil) {
		return e.now
	}
	next := target
	if es != nil {
		t, ok := es.NextArrival(e.now)
		if !ok {
			// No arrivals ever again; obligations and the target govern.
		} else if t <= e.now {
			return e.now
		} else if t < next {
			next = t
		}
	}
	if len(e.wakeAt) > 0 && e.wakeAt[0] < next {
		next = e.wakeAt[0]
	}
	if next < e.now {
		next = e.now
	}
	return next
}

// skipTo jumps the clock to the given slot, reporting the skipped
// stretch — all idle by construction — as one slot span.
func (e *Engine) skipTo(next Slot) {
	if e.wants.Has(EvSlot) {
		e.sink.On(Event{Kind: EvSlot, Slot: e.now, Station: -1, A: int(next - 1)})
	}
	e.now = next
}

func (e *Engine) step(src Source) {
	now := e.now

	// 0. Due wake obligations: return stations whose crash schedule
	// flips at or before this slot to the tick loop, so their channel
	// history is resynchronised at the transition while the slept span
	// is still fully reconstructible.
	for len(e.wakeAt) > 0 && e.wakeAt[0] <= now {
		t, i := e.popWake()
		if e.nextWake[i] == t {
			e.nextWake[i] = -1
		}
		e.wake(i)
	}

	// 0.25. Mobility / environment hook.
	if e.slotHook != nil {
		e.slotHook(now, e)
	}

	// 0.5. Physical carrier sense, computed once for the slot: a station
	// senses the medium busy when a transmission that began in an earlier
	// slot is still in the air within range.
	e.enter(PhaseBusyStamp)
	e.computeBusy()

	// 1. Traffic arrivals.
	e.enter(PhaseArrivals)
	if src != nil {
		for _, req := range src.Arrivals(now, e.rng) {
			m := e.macs[req.Src]
			if m == nil {
				panic(fmt.Sprintf("sim: no MAC attached to station %d", req.Src))
			}
			e.wake(req.Src)
			if e.wants.Has(EvSubmit) {
				e.sink.On(Event{Kind: EvSubmit, Slot: now, Station: req.Src, Req: req})
			}
			m.Submit(&e.envs[req.Src], req)
		}
	}

	// 2. Tick every MAC; collect new transmissions. Carrier sense views
	// only transmissions started in earlier slots, which are exactly the
	// ones already in the tx table. Sleeping stations are skipped
	// wholesale; the awake worklist is built — and stale entries
	// filtered — in station-ID order, so the surviving ticks — and with
	// them every PRNG draw — happen in exactly the order the naive loop
	// produces.
	e.enter(PhaseMacTick)
	if e.awakeDirty {
		e.awakeDirty = false
		e.awake = e.awake[:0]
		for i, m := range e.macs {
			if m != nil && !e.asleep[i] {
				e.awake = append(e.awake, i)
			}
		}
	}
	for _, i := range e.awake {
		if e.asleep[i] {
			continue
		}
		m := e.macs[i]
		// History restore runs before the crash check: a station woken
		// at its up→down transition must resynchronise now, while every
		// slot of the slept span was up and observed; by its recovery
		// slot the stamps may include busy slots its frozen twin on the
		// reference path never saw.
		if e.resync[i] {
			e.resync[i] = false
			last := e.busyStamp[i]
			if last >= now {
				// Busy in the wake slot itself; the idle run ends at the
				// busy slot before it.
				last = e.prevBusy[i]
			}
			if last > e.sleptAt[i] {
				// A busy slot fell inside the slept span: the idle run
				// restarts there, entirely within engine-observed time.
				e.sleepers[i].Wake(int(now - 1 - last))
			} else {
				// Idle throughout the span: extend whatever run the MAC
				// retained when it fell asleep.
				e.sleepers[i].WakeExtend(int(now - 1 - e.sleptAt[i]))
			}
		}
		// A crashed station is silent: no frame, no CTS/ACK response, no
		// backoff countdown. Its queued requests keep aging toward their
		// deadlines and its MAC state resumes intact on recovery.
		if e.imp != nil && e.imp.Down(i, now) {
			continue
		}
		f := m.Tick(&e.envs[i])
		if f == nil {
			if e.sleepOK && e.sleepers[i] != nil && e.sleepers[i].Quiescent(now+1) {
				e.asleep[i] = true
				e.numAsleep++
				e.sleptAt[i] = now
				if e.crashSched != nil {
					if t, ok := e.crashSched.NextCrashChange(i, now); ok && e.nextWake[i] != t {
						e.pushWake(t, i)
						e.nextWake[i] = t
					}
				}
			}
			continue
		}
		if e.txBusyUntil[i] >= now {
			panic(fmt.Sprintf("sim: station %d started a frame while already transmitting", i))
		}
		e.startTx(i, f)
	}

	// 3. Per-slot interference resolution.
	e.enter(PhaseResolve)
	e.resolveSlot()

	// 3.5. Channel-state event: the airing set is complete (new
	// transmissions registered, none completed yet) and the collision
	// flag is fresh from resolution. Draws nothing from the PRNG, so runs
	// with and without a slot sink simulate bit-identically.
	e.enter(PhaseObserver)
	if e.wants.Has(EvSlot) {
		e.emitSlot()
	}

	// 4. Frame completions.
	e.enter(PhaseDeliveries)
	e.completeSlot()

	e.enter(PhaseUntracked)
	e.now++
}

// wake returns a sleeping station to the tick loop and schedules its
// channel-history resync. Idempotent for stations already awake.
func (e *Engine) wake(i int) {
	if e.asleep[i] {
		e.asleep[i] = false
		e.numAsleep--
		e.resync[i] = true
		e.awakeDirty = true
	}
}

// wakeLess orders the obligation heap by (slot, station).
func (e *Engine) wakeLess(a, b int) bool {
	return e.wakeAt[a] < e.wakeAt[b] ||
		(e.wakeAt[a] == e.wakeAt[b] && e.wakeWho[a] < e.wakeWho[b])
}

func (e *Engine) wakeSwap(a, b int) {
	e.wakeAt[a], e.wakeAt[b] = e.wakeAt[b], e.wakeAt[a]
	e.wakeWho[a], e.wakeWho[b] = e.wakeWho[b], e.wakeWho[a]
}

// pushWake registers a wake obligation for the station at slot t.
func (e *Engine) pushWake(t Slot, who int) {
	e.wakeAt = append(e.wakeAt, t)
	e.wakeWho = append(e.wakeWho, who)
	for c := len(e.wakeAt) - 1; c > 0; {
		p := (c - 1) / 2
		if !e.wakeLess(c, p) {
			break
		}
		e.wakeSwap(c, p)
		c = p
	}
}

// popWake removes and returns the earliest obligation.
func (e *Engine) popWake() (Slot, int) {
	t, who := e.wakeAt[0], e.wakeWho[0]
	n := len(e.wakeAt) - 1
	e.wakeSwap(0, n)
	e.wakeAt = e.wakeAt[:n]
	e.wakeWho = e.wakeWho[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && e.wakeLess(c+1, c) {
			c++
		}
		if !e.wakeLess(c, p) {
			break
		}
		e.wakeSwap(p, c)
		p = c
	}
	return t, who
}

// startTx registers a transmission beginning at the current slot as a
// new row of the tx table.
func (e *Engine) startTx(sender int, f *frames.Frame) {
	// The radio, not the MAC, is the authority on who transmitted.
	f.Src = frames.Addr(sender)
	air := e.timing.Airtime(f.Type)
	nb := e.topo.Neighbors(sender)
	r := e.txN
	if r == len(e.txFrame) {
		e.txFrame = append(e.txFrame, nil)
		e.txSender = append(e.txSender, 0)
		e.txStart = append(e.txStart, 0)
		e.txEnd = append(e.txEnd, 0)
		e.txRecv = append(e.txRecv, nil)
		e.txCorrupt = append(e.txCorrupt, nil)
		e.txNDists = append(e.txNDists, nil)
		e.txTopoGen = append(e.txTopoGen, 0)
	}
	e.txFrame[r] = f
	e.txSender[r] = int32(sender)
	e.txStart[r] = e.now
	e.txEnd[r] = e.now + Slot(air) - 1
	e.txRecv[r] = nb
	// Corruption masks parked by earlier completions are recycled in
	// place (deterministically — the row index is the identity); the
	// reference path allocates fresh, as the naive engine did.
	if cor := e.txCorrupt[r]; !e.reference && cap(cor) >= len(nb) {
		cor = cor[:len(nb)]
		for i := range cor {
			cor[i] = false
		}
		e.txCorrupt[r] = cor
	} else {
		e.txCorrupt[r] = make([]bool, len(nb))
	}
	if e.reference {
		e.txNDists[r] = nil
	} else {
		e.txNDists[r] = e.topo.NeighborDists(sender)
		e.txTopoGen[r] = e.topoGen
	}
	e.txN = r + 1
	e.txBusyUntil[sender] = e.txEnd[r]
	if e.wants.Has(EvFrameTx) {
		e.sink.On(Event{Kind: EvFrameTx, Slot: e.now, Station: sender, Frame: f, A: int(e.txEnd[r])})
	}
}

// resolveSlot marks corruption for all signals overlapping this slot.
func (e *Engine) resolveSlot() {
	now := e.now
	e.slotCollided = false
	touchedNodes := e.touched[:0]
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] > now || e.txEnd[ti] < now {
			continue
		}
		for ri, j := range e.txRecv[ti] {
			if len(e.sigTx[j]) == 0 {
				touchedNodes = append(touchedNodes, j)
			}
			e.sigTx[j] = append(e.sigTx[j], int32(ti))
			e.sigRx[j] = append(e.sigRx[j], int32(ri))
		}
	}
	for _, j := range touchedNodes {
		if e.resolveStation(j) {
			e.slotCollided = true
		}
	}
	e.touched = touchedNodes[:0]
}

// resolveStation resolves the signal set collected for station j this
// slot, marking corruption in the tx table and clearing the station's
// signal scratch. The capture draw, when one is needed, comes from the
// engine stream. Returns whether ≥2 signals overlapped (the slot
// event's collision flag).
func (e *Engine) resolveStation(j int) bool {
	now := e.now
	sigs := e.sigTx[j]
	collided := false
	switch {
	case e.txBusyUntil[j] >= now:
		// Half duplex: a transmitting station decodes nothing. Two or
		// more arrivals still count as a physical signal overlap for
		// the slot event's collision flag.
		if len(sigs) > 1 {
			collided = true
		}
		for k, ti := range sigs {
			e.txCorrupt[ti][e.sigRx[j][k]] = true
		}
	case len(sigs) == 1:
		// Clean slot for this frame at this receiver.
	default:
		collided = true
		// Collision: ask the capture model which signal survives.
		// Distances come from the table captured at transmission
		// start; Dist is symmetric (math.Hypot of the same deltas),
		// so txNDists[ti][ri] is bit-for-bit the e.topo.Dist(j,
		// sender) the naive path computes. The live query remains for
		// transmissions launched under a topology since swapped out.
		d := e.dists[:0]
		for k, ti := range sigs {
			if nd := e.txNDists[ti]; nd != nil && e.txTopoGen[ti] == e.topoGen {
				d = append(d, nd[e.sigRx[j][k]])
			} else {
				d = append(d, e.topo.Dist(j, int(e.txSender[ti])))
			}
		}
		e.dists = d
		win := e.capture.Resolve(d, e.rng.Float64())
		for k, ti := range sigs {
			if k != win {
				e.txCorrupt[ti][e.sigRx[j][k]] = true
			}
		}
	}
	e.sigTx[j] = sigs[:0]
	e.sigRx[j] = e.sigRx[j][:0]
	return collided
}

// emitSlot emits the channel state of the current slot: every
// transmission in the air (via the reused scratch list) and whether
// resolution saw a signal overlap. Called only when a sink wants slot
// events.
func (e *Engine) emitSlot() {
	now := e.now
	airing := e.airScratch[:0]
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] <= now && e.txEnd[ti] >= now {
			airing = append(airing, AiringTx{
				Frame:  e.txFrame[ti],
				Sender: int(e.txSender[ti]),
				Start:  e.txStart[ti],
				End:    e.txEnd[ti],
			})
		}
	}
	collided := 0
	if e.slotCollided {
		collided = 1
	}
	e.airScratch = airing
	e.sink.On(Event{Kind: EvSlot, Slot: now, Station: -1, A: int(now), B: collided, Airing: &e.airScratch})
	// Break the frame references before recycling the scratch so retained
	// frames stay collectable once their transmissions complete.
	for i := range airing {
		airing[i].Frame = nil
	}
	e.airScratch = airing[:0]
}

// completeSlot delivers every frame whose last slot is the current one,
// compacting the tx table in place. Live rows keep their relative order
// (the resolution order the reference path produces); completed rows'
// corruption masks are swapped toward the tail for recycling.
func (e *Engine) completeSlot() {
	now := e.now
	w := 0
	for r := 0; r < e.txN; r++ {
		if e.txEnd[r] != now {
			if w != r {
				e.txFrame[w], e.txFrame[r] = e.txFrame[r], nil
				e.txSender[w] = e.txSender[r]
				e.txStart[w] = e.txStart[r]
				e.txEnd[w] = e.txEnd[r]
				e.txRecv[w], e.txRecv[r] = e.txRecv[r], nil
				e.txCorrupt[w], e.txCorrupt[r] = e.txCorrupt[r], e.txCorrupt[w]
				e.txNDists[w], e.txNDists[r] = e.txNDists[r], nil
				e.txTopoGen[w] = e.txTopoGen[r]
			}
			w++
			continue
		}
		f := e.txFrame[r]
		sender := int(e.txSender[r])
		cor := e.txCorrupt[r]
		for ri, j := range e.txRecv[r] {
			lost := cor[ri]
			if !lost && e.imp != nil {
				if e.imp.Down(j, now) {
					lost = true
					if n, ok := e.imp.(crashNoter); ok {
						n.NoteCrashDrop()
					}
				} else if e.imp.Erase(f, sender, j, now) {
					lost = true
				}
			}
			if !lost && e.errRate > 0 && e.rng.Float64() < e.errRate {
				lost = true
			}
			if lost {
				if e.wants.Has(EvRxLost) {
					e.sink.On(Event{Kind: EvRxLost, Slot: now, Station: j, Frame: f})
				}
				continue
			}
			if e.wants.Has(EvRxOK) {
				e.sink.On(Event{Kind: EvRxOK, Slot: now, Station: j, Frame: f})
			}
			if f.Type == frames.Data && e.wants.Has(EvDataRx) {
				e.sink.On(Event{Kind: EvDataRx, Slot: now, Station: j, Frame: f})
			}
			if m := e.macs[j]; m != nil {
				m.Deliver(&e.envs[j], f)
				// A sleeping receiver stays asleep unless the frame left
				// it something to do — a scheduled response, typically.
				// NAV-only overhears keep it in bed: the NAV is a pure
				// function of the current slot when next consulted.
				if e.asleep[j] && !e.sleepers[j].Quiescent(now+1) {
					e.wake(j)
				}
			}
		}
		// The row is done: break the references it holds. The frame
		// itself is never pooled — MACs and sinks may retain it
		// indefinitely. Its corruption mask stays parked in
		// the tail for the next startTx to recycle.
		e.txFrame[r] = nil
		e.txRecv[r] = nil
		e.txNDists[r] = nil
	}
	e.txN = w
}

// computeBusy stamps the current slot onto the neighbors of every
// ongoing transmitter — O(active × degree) per slot, with no per-station
// clearing pass. The stamps double as the busy/idle series behind the
// wake-time idle-run reconstruction, maintained for every station
// whether it ticks or sleeps.
func (e *Engine) computeBusy() {
	now := e.now
	for ti := 0; ti < e.txN; ti++ {
		if e.txStart[ti] < now && e.txEnd[ti] >= now {
			for _, j := range e.topo.Neighbors(int(e.txSender[ti])) {
				if e.busyStamp[j] != now {
					e.prevBusy[j] = e.busyStamp[j]
					e.busyStamp[j] = now
				}
			}
		}
	}
}

// carrierBusy reports whether station i senses energy from another
// station's transmission that started before the current slot.
func (e *Engine) carrierBusy(i int) bool { return e.busyStamp[i] == e.now }
