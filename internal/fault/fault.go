// Package fault injects channel impairments and node failures into a
// simulation run, independently of the collision process the capture
// models govern. The paper's evaluation (§7) loses frames only to
// collisions; the regime its reliability mechanisms were designed for —
// "reliable multicast over an unreliable channel" — needs an error
// process the MAC cannot prevent, only recover from. This package
// supplies four such processes:
//
//   - an i.i.d. per-link packet error rate (Config.PER): every frame is
//     independently erased at each in-range receiver with fixed
//     probability, the memoryless channel of the §6 analysis;
//   - a Gilbert–Elliott two-state bursty channel per directed link
//     (Config.GE): each link flips between a good and a bad state with
//     per-slot transition probabilities and erases frames at a
//     state-dependent rate, modelling fades that outlive a whole
//     RTS/CTS/DATA exchange;
//   - node crash/recover schedules (Config.Crash): a crashed station
//     neither transmits nor decodes — it sends no CTS/ACK and buffers no
//     data — then recovers with its MAC state intact;
//   - location noise (Config.LocNoise): Gaussian error on the
//     coordinates LAMM's MCS/UPDATE procedures see, stressing Theorems
//     1–4 under stale or imprecise GPS fixes. This axis perturbs the
//     protocol's knowledge, not the channel, so it is applied when the
//     MAC factory is built (core.NewLAMMNoisy) rather than through the
//     Injector.
//
// # Determinism
//
// Every random decision derives from Config.Seed through stateless
// splitmix64 hashing of (seed, stream, key, slot) tuples, never from the
// engine PRNG. Two consequences: a faulted run is exactly reproducible
// from its seed, and the zero-value Config is a true no-op — the engine
// consumes the same random sequence with and without a nil impairment,
// so metrics are byte-identical to a faultless run.
//
// # Wiring
//
// Build an Injector with NewInjector and pass it as sim.Config.Impairment
// (experiments.RunConfig.Fault does this for you, deriving the fault seed
// from the run seed). Crash boundaries are observed at slot granularity:
// a station that crashes while a frame of its own is in flight finishes
// that transmission — the radio, not the host, empties the antenna.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"relmac/internal/frames"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// GilbertElliott parameterises the two-state bursty channel: each
// directed link is an independent Markov chain over {good, bad}, stepped
// once per slot, erasing frames at the rate of the state the link is in
// when the frame's last slot lands. Links start in the good state. The
// expected burst length is 1/PBadGood slots and the stationary
// bad-state fraction is PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	// PGoodBad is the per-slot probability of a good→bad transition.
	PGoodBad float64
	// PBadGood is the per-slot probability of a bad→good transition.
	PBadGood float64
	// PERGood is the frame erasure probability in the good state
	// (typically 0 or small).
	PERGood float64
	// PERBad is the frame erasure probability in the bad state.
	PERBad float64
}

// Enabled reports whether the chain can ever erase a frame.
func (g GilbertElliott) Enabled() bool {
	return (g.PGoodBad > 0 && g.PERBad > 0) || g.PERGood > 0
}

// Validate reports an error for out-of-range parameters, NaN included.
func (g GilbertElliott) Validate() error {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.PERGood, g.PERBad} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("fault: Gilbert–Elliott parameter %v outside [0,1]", p)
		}
	}
	return nil
}

// Crash parameterises per-node crash/recover schedules: each node
// alternates exponentially distributed up intervals (mean MTTF slots)
// and down intervals (mean MTTR slots), independently of every other
// node. All nodes start up.
type Crash struct {
	// MTTF is the mean time to failure in slots; 0 disables crashes.
	MTTF float64
	// MTTR is the mean time to recover in slots.
	MTTR float64
}

// Enabled reports whether nodes ever crash.
func (c Crash) Enabled() bool { return c.MTTF > 0 && c.MTTR > 0 }

// Validate reports an error for negative (or NaN) means or a
// half-configured schedule.
func (c Crash) Validate() error {
	if !(c.MTTF >= 0 && c.MTTR >= 0) {
		return fmt.Errorf("fault: negative crash interval mean (MTTF=%g, MTTR=%g)", c.MTTF, c.MTTR)
	}
	if (c.MTTF > 0) != (c.MTTR > 0) {
		return fmt.Errorf("fault: crash schedule needs both MTTF and MTTR (got MTTF=%g, MTTR=%g)", c.MTTF, c.MTTR)
	}
	return nil
}

// Config assembles the impairment axes of one run. The zero value is a
// true no-op: no injector is built, no random stream is consumed, and
// run results are byte-identical to a faultless run at the same seed.
type Config struct {
	// PER is the i.i.d. per-frame, per-receiver erasure probability.
	PER float64
	// GE is the Gilbert–Elliott bursty channel; zero value disabled.
	GE GilbertElliott
	// Crash is the node crash/recover schedule; zero value disabled.
	Crash Crash
	// LocNoise is the standard deviation of the Gaussian error applied
	// to the station coordinates LAMM's MCS/UPDATE sees (unit-square
	// units; the default radio radius is 0.2). It affects only
	// location-aware protocols and is wired at MAC-factory construction,
	// not through the Injector.
	LocNoise float64
	// Seed drives every impairment decision. experiments.Run derives it
	// from the run seed when left zero, keeping the seedFor scheme the
	// single source of randomness.
	Seed int64
}

// ChannelActive reports whether any axis served by the Injector (PER,
// GE, Crash) is enabled.
func (c Config) ChannelActive() bool {
	return c.PER > 0 || c.GE.Enabled() || c.Crash.Enabled()
}

// Active reports whether any impairment axis at all is enabled.
func (c Config) Active() bool { return c.ChannelActive() || c.LocNoise > 0 }

// Validate reports an error for out-of-range parameters on any axis,
// NaN included.
func (c Config) Validate() error {
	if !(c.PER >= 0 && c.PER <= 1) {
		return fmt.Errorf("fault: PER %v outside [0,1]", c.PER)
	}
	if !(c.LocNoise >= 0) {
		return fmt.Errorf("fault: LocNoise %v: must be a non-negative number", c.LocNoise)
	}
	if err := c.GE.Validate(); err != nil {
		return err
	}
	return c.Crash.Validate()
}

// Hash streams, keeping the axes' random decisions independent even when
// they share (key, slot) coordinates.
const (
	streamIID uint64 = 1 + iota
	streamGETrans
	streamGEErase
	streamCrash
)

// geLink is the lazily materialised Markov state of one directed link.
type geLink struct {
	bad  bool
	upTo sim.Slot // transitions applied through this slot
}

// nodeSched is the lazily materialised crash schedule of one node: the
// node is in state down until slot until (exclusive), with k counting
// interval draws for the hash stream.
type nodeSched struct {
	down  bool
	until sim.Slot
	k     uint64
}

// Injector implements sim.Impairment for one engine run. It is stateful
// (Gilbert–Elliott link states, crash schedules, counters) and must not
// be shared between concurrent runs; Sweep builds one per run.
type Injector struct {
	cfg   Config
	links map[uint64]*geLink
	nodes map[int]*nodeSched

	// Degradation counters, exported via FeedRegistry.
	iidErasures int64 // frames erased by the i.i.d. PER axis
	geErasures  int64 // frames erased by the bursty-channel axis
	crashDrops  int64 // frame receptions lost to a crashed receiver
	crashDowns  int64 // down intervals entered across all nodes
}

// NewInjector builds an Injector for the configuration. It panics on an
// invalid configuration — an impairment silently out of range would
// invalidate a whole study.
func NewInjector(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	inj := &Injector{cfg: cfg}
	if cfg.GE.Enabled() {
		inj.links = make(map[uint64]*geLink)
	}
	if cfg.Crash.Enabled() {
		inj.nodes = make(map[int]*nodeSched)
	}
	return inj
}

// Config returns the configuration the injector was built with.
func (inj *Injector) Config() Config { return inj.cfg }

// mix64 is the splitmix64 finaliser; a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 hashes (seed, stream, key, t) to a uniform in [0,1). Stateless, so
// the decision for a given coordinate never depends on query order.
func (inj *Injector) u01(stream, key uint64, t sim.Slot) float64 {
	h := mix64(uint64(inj.cfg.Seed) ^ mix64(stream^mix64(key^mix64(uint64(t)))))
	return float64(h>>11) / (1 << 53)
}

// linkKey packs a directed (sender, receiver) pair.
func linkKey(sender, receiver int) uint64 {
	return uint64(uint32(sender))<<32 | uint64(uint32(receiver))
}

// Erase implements sim.Impairment: it decides whether the frame, whose
// last slot of airtime is now, is erased on the sender→receiver link by
// a non-collision channel error.
func (inj *Injector) Erase(f *frames.Frame, sender, receiver int, now sim.Slot) bool {
	key := linkKey(sender, receiver)
	if inj.cfg.PER > 0 && inj.u01(streamIID, key, now) < inj.cfg.PER {
		inj.iidErasures++
		return true
	}
	if inj.links != nil {
		per := inj.cfg.GE.PERGood
		if inj.linkBad(key, now) {
			per = inj.cfg.GE.PERBad
		}
		if per > 0 && inj.u01(streamGEErase, key, now) < per {
			inj.geErasures++
			return true
		}
	}
	return false
}

// linkBad advances the link's Markov chain to the given slot and reports
// whether it is in the bad state there. Per-slot transition draws are
// stateless hashes of (link, slot), so interleaved erase queries cannot
// shift the chain's trajectory.
func (inj *Injector) linkBad(key uint64, now sim.Slot) bool {
	st := inj.links[key]
	if st == nil {
		st = &geLink{upTo: -1}
		inj.links[key] = st
	}
	for t := st.upTo + 1; t <= now; t++ {
		u := inj.u01(streamGETrans, key, t)
		if st.bad {
			if u < inj.cfg.GE.PBadGood {
				st.bad = false
			}
		} else if u < inj.cfg.GE.PGoodBad {
			st.bad = true
		}
	}
	st.upTo = now
	return st.bad
}

// Down implements sim.Impairment: it reports whether the station is
// crashed at the given slot. A crashed station is skipped by the engine
// (it neither ticks — so it sends no frame and no CTS/ACK response —
// nor decodes arriving frames) while its queued requests keep aging
// toward their deadlines.
func (inj *Injector) Down(station int, now sim.Slot) bool {
	if inj.nodes == nil {
		return false
	}
	s := inj.nodes[station]
	if s == nil {
		s = &nodeSched{}
		s.until = inj.drawInterval(station, s, inj.cfg.Crash.MTTF)
		inj.nodes[station] = s
	}
	for s.until <= now {
		s.down = !s.down
		mean := inj.cfg.Crash.MTTF
		if s.down {
			mean = inj.cfg.Crash.MTTR
			inj.crashDowns++
		}
		s.until += inj.drawInterval(station, s, mean)
	}
	return s.down
}

// NextCrashChange implements sim.CrashScheduler: it returns the next
// slot strictly after now at which the station's up/down state flips,
// or ok=false when no crash axis is configured. It advances the lazily
// materialised schedule exactly as a Down query at the same slot would
// — same catch-up loop, same hash-stream draws, same crashDowns
// accounting — so the engine's slot-skipping path leaves the injector
// in the byte-identical state the per-slot reference path reaches.
func (inj *Injector) NextCrashChange(station int, now sim.Slot) (sim.Slot, bool) {
	if inj.nodes == nil {
		return 0, false
	}
	inj.Down(station, now)
	return inj.nodes[station].until, true
}

// drawInterval draws an exponential interval (mean slots, minimum one
// slot) from the node's private hash stream.
func (inj *Injector) drawInterval(station int, s *nodeSched, mean float64) sim.Slot {
	s.k++
	u := inj.u01(streamCrash, uint64(uint32(station))<<32|s.k, 0)
	d := sim.Slot(math.Ceil(-mean * math.Log(1-u)))
	if d < 1 {
		d = 1
	}
	return d
}

// NoteCrashDrop counts a frame reception lost because the receiver was
// down; the engine calls it so the loss is attributed to the crash axis
// rather than the channel.
func (inj *Injector) NoteCrashDrop() { inj.crashDrops++ }

// Erasures returns the frames erased so far by (iid, bursty) channel
// errors.
func (inj *Injector) Erasures() (iid, ge int64) { return inj.iidErasures, inj.geErasures }

// CrashStats returns the receptions dropped at crashed receivers and the
// number of down intervals entered.
func (inj *Injector) CrashStats() (drops, downs int64) { return inj.crashDrops, inj.crashDowns }

// FeedRegistry exports the injector's degradation counters under the
// given prefix: <prefix>.erasures.iid, <prefix>.erasures.burst,
// <prefix>.crash.rx_dropped and <prefix>.crash.downs. Calling it once
// per finished run aggregates multiple runs into the same counters.
func (inj *Injector) FeedRegistry(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + ".erasures.iid").Add(inj.iidErasures)
	reg.Counter(prefix + ".erasures.burst").Add(inj.geErasures)
	reg.Counter(prefix + ".crash.rx_dropped").Add(inj.crashDrops)
	reg.Counter(prefix + ".crash.downs").Add(inj.crashDowns)
}

// ParseGE parses the CLI form of a Gilbert–Elliott configuration,
// "pGoodBad:pBadGood:perBad[:perGood]" — e.g. "0.01:0.1:0.8" for fades
// starting at 1%/slot, lasting 10 slots on average and erasing 80% of
// frames. An empty string yields the disabled zero value.
func ParseGE(s string) (GilbertElliott, error) {
	var g GilbertElliott
	if s == "" {
		return g, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return g, fmt.Errorf("fault: -ge wants pGoodBad:pBadGood:perBad[:perGood], got %q", s)
	}
	dst := []*float64{&g.PGoodBad, &g.PBadGood, &g.PERBad, &g.PERGood}
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return g, fmt.Errorf("fault: bad -ge component %q: %v", p, err)
		}
		*dst[i] = v
	}
	return g, g.Validate()
}

// ParseCrash parses the CLI form of a crash schedule, "mttf:mttr" in
// slots — e.g. "2000:200" for nodes that stay up 2000 slots and down
// 200 slots on average. An empty string yields the disabled zero value.
func ParseCrash(s string) (Crash, error) {
	var c Crash
	if s == "" {
		return c, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return c, fmt.Errorf("fault: -crash wants mttf:mttr, got %q", s)
	}
	var err error
	if c.MTTF, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return c, fmt.Errorf("fault: bad -crash MTTF %q: %v", parts[0], err)
	}
	if c.MTTR, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return c, fmt.Errorf("fault: bad -crash MTTR %q: %v", parts[1], err)
	}
	return c, c.Validate()
}
