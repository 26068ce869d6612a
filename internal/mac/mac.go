// Package mac provides the building blocks shared by every MAC protocol
// in this repository: the CSMA/CA contention (backoff) state machine of
// the paper's §2.1, the NAV-based virtual carrier sense ("yield" state),
// FIFO service queues with deadline expiry, response scheduling for
// CTS/ACK/RAK/NAK turnaround, and common configuration.
//
// Protocol implementations (internal/baseline/..., internal/core) embed
// these primitives and add their own sender/receiver state machines.
package mac

import (
	"math/rand"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

// Config collects the MAC parameters shared by all protocols so that
// protocol comparisons are apples-to-apples.
type Config struct {
	// CWMin and CWMax bound the contention window (slots). A fresh
	// contention phase draws a backoff in [0, CW); the window doubles on
	// Fail up to CWMax, as in 802.11 binary exponential backoff. The
	// paper leaves the window unspecified; see DESIGN.md.
	CWMin, CWMax int
	// RetryLimit caps the number of contention phases a MAC will spend
	// on one message before giving up. The paper's simulations rely on
	// the message Timeout instead; the limit is a safety net.
	RetryLimit int
	// Timing holds frame airtimes.
	Timing frames.Timing
	// ExposedTerminalOpt enables the location-aware exposed-terminal
	// optimisation explored as the paper's future work (§8): a station
	// that overhears an RTS whose data receivers are all out of its own
	// transmission range reserves the medium only through the CTS
	// turnaround instead of the whole exchange, falling back on physical
	// carrier sense afterwards. This lets spatially separated exchanges
	// proceed in parallel at the cost of a small residual risk of
	// colliding with the exchange's closing ACKs. Off by default — the
	// paper's protocols do not include it.
	ExposedTerminalOpt bool
}

// DefaultConfig returns the parameters used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		CWMin:      16,
		CWMax:      256,
		RetryLimit: 64,
		Timing:     frames.DefaultTiming(),
	}
}

// backoffState enumerates the contention phase machine states.
type backoffState uint8

const (
	boInactive backoffState = iota
	boFirstSense
	boAwaitIdle
	boCounting
)

// Backoff is the CSMA/CA contention phase machine (paper §2.1):
//
//  1. a station wishing to transmit first listens to the medium;
//  2. if the medium is idle, transmit;
//  3. if busy, listen until idle, then back off a random number of slots
//     drawn from the contention window, freezing the countdown whenever
//     the medium turns busy again, and transmit when it expires.
//
// Call Begin to enter a contention phase, then Tick once per slot with
// the station's combined (physical + virtual) carrier sense; Tick returns
// true in the slot the station is cleared to transmit.
type Backoff struct {
	cwMin, cwMax int
	cw           int
	state        backoffState
	counter      int
	failed       bool
}

// NewBackoff builds a Backoff with the given window bounds.
func NewBackoff(cwMin, cwMax int) *Backoff {
	if cwMin < 1 {
		cwMin = 1
	}
	if cwMax < cwMin {
		cwMax = cwMin
	}
	return &Backoff{cwMin: cwMin, cwMax: cwMax, cw: cwMin}
}

// Begin enters a new contention phase. The contention window keeps its
// current (possibly widened) size; call Reset to shrink it back to CWMin
// after a success. A phase following a Fail never uses the
// transmit-immediately path: retransmissions always draw a random
// backoff, exactly so that two colliding stations desynchronise.
func (b *Backoff) Begin() {
	if b.failed {
		b.state = boAwaitIdle
		return
	}
	b.state = boFirstSense
}

// BeginDeferred enters a contention phase that always draws a random
// backoff, skipping the transmit-immediately path. IEEE 802.11 mandates
// this "post backoff" between consecutive transmissions of the same
// station — it is what makes each of BMW's n contention phases "lengthy
// in time" (paper §3) compared with BMMM's single one.
func (b *Backoff) BeginDeferred() { b.state = boAwaitIdle }

// Active reports whether a contention phase is in progress.
func (b *Backoff) Active() bool { return b.state != boInactive }

// Tick advances the machine by one slot. busy is the station's carrier
// sense for this slot (physical sense OR NAV yield). It returns true when
// the station may transmit in this slot, after which the machine is
// inactive until the next Begin.
func (b *Backoff) Tick(busy bool, rng *rand.Rand) bool {
	switch b.state {
	case boInactive:
		return false
	case boFirstSense:
		if !busy {
			b.state = boInactive
			return true
		}
		b.state = boAwaitIdle
		return false
	case boAwaitIdle:
		if busy {
			return false
		}
		b.counter = rng.Intn(b.cw)
		b.state = boCounting
		return b.tickCount()
	case boCounting:
		if busy {
			return false // frozen
		}
		return b.tickCount()
	}
	return false
}

func (b *Backoff) tickCount() bool {
	if b.counter == 0 {
		b.state = boInactive
		return true
	}
	b.counter--
	return false
}

// Fail doubles the contention window (bounded by CWMax); call it when a
// transmission attempt failed and a retry is coming.
func (b *Backoff) Fail() {
	b.failed = true
	b.cw *= 2
	if b.cw > b.cwMax {
		b.cw = b.cwMax
	}
}

// Reset shrinks the window to CWMin, clears the failure flag and aborts
// any in-progress phase.
func (b *Backoff) Reset() {
	b.cw = b.cwMin
	b.state = boInactive
	b.failed = false
}

// Window exposes the current contention window size (for tests and
// diagnostics).
func (b *Backoff) Window() int { return b.cw }

// ChannelHistory tracks how long the medium has been continuously idle at
// a station. IEEE 802.11 permits a new transmission only after the medium
// has been idle for DIFS, while receivers respond after the shorter SIFS;
// in the slotted model this inter-frame-space priority is expressed as
// "senders need IdleFor(DIFS slots), responders go in the very next
// slot". This is what keeps neighbors from passing their contention phase
// in the middle of a BMMM batch, where the medium never idles for more
// than one slot between frames (paper §4).
type ChannelHistory struct {
	idleRun int
}

// Observe records one slot's physical carrier sense.
func (h *ChannelHistory) Observe(busy bool) {
	if busy {
		h.idleRun = 0
	} else {
		h.idleRun++
	}
}

// IdleFor reports whether the medium has been idle for at least n
// consecutive observed slots (including the current one).
func (h *ChannelHistory) IdleFor(n int) bool { return h.idleRun >= n }

// IdleRun returns the current idle streak length.
func (h *ChannelHistory) IdleRun() int { return h.idleRun }

// Restore overwrites the idle streak with an externally reconstructed
// value. The engine's idle-station scheduler calls it (via sim.Sleeper's
// Wake) when a station resumes ticking after skipped slots: the history
// missed those Observe calls, but the idle run is a pure function of the
// channel's busy/idle series, which the engine tracks for every station.
func (h *ChannelHistory) Restore(run int) { h.idleRun = run }

// Extend lengthens the idle streak by n slots without resetting it. The
// engine's idle-station scheduler calls it (via sim.Sleeper's
// WakeExtend) when every skipped slot was idle: the streak the station
// retained when it stopped observing simply continues, which matters
// for stations whose history froze through a crash window and so cannot
// be overwritten with the channel's absolute idle run.
func (h *ChannelHistory) Extend(n int) { h.idleRun += n }

// DefaultDIFS is the sender inter-frame space in slots: a station may
// begin (or count down) contention only after this many consecutive idle
// slots, so 1-slot response turnarounds inside an exchange can never be
// pre-empted.
const DefaultDIFS = 2

// NAV is the network allocation vector backing virtual carrier sense.
// A station that overhears a control frame not addressed to it yields for
// the Duration carried in that frame (receiver's protocol, Figure 3).
type NAV struct {
	until sim.Slot
	set   bool
}

// Set extends the NAV so the station yields through the given slot
// (inclusive). Shorter reservations never shrink an existing NAV. It
// reports whether the NAV was actually extended.
func (n *NAV) Set(until sim.Slot) bool {
	if !n.set || until > n.until {
		n.until = until
		n.set = true
		return true
	}
	return false
}

// SetFor extends the NAV to cover duration slots following now,
// reporting whether it extended the NAV.
func (n *NAV) SetFor(now sim.Slot, duration int) bool {
	if duration <= 0 {
		return false
	}
	return n.Set(now + sim.Slot(duration))
}

// Yielding reports whether the station is inside a yield period.
func (n *NAV) Yielding(now sim.Slot) bool { return n.set && now <= n.until }

// Clear cancels the NAV.
func (n *NAV) Clear() { n.set = false }

// Until returns the last yielded slot (meaningful only while set).
func (n *NAV) Until() sim.Slot { return n.until }

// NAVTable tracks the virtual-carrier-sense reservations a station has
// overheard, one entry per exchange (message ID). Real 802.11 keeps a
// single scalar NAV; the paper's receiver rule, however, distinguishes
// "yielding to somebody else's exchange" (refuse to answer, Figure 3)
// from "inside the reservation of the exchange that is polling me" (a
// BMMM batch receiver must answer its RTS/RAK even though the batch's
// own first RTS reserved the medium past that point). Keying reservations
// by exchange makes that distinction exact.
type NAVTable struct {
	ids    []int64
	untils []sim.Slot
}

// Observe records that the exchange msgID has reserved the medium through
// the slot until (inclusive), extending any existing reservation.
func (n *NAVTable) Observe(msgID int64, until sim.Slot) {
	for i, id := range n.ids {
		if id == msgID {
			if until > n.untils[i] {
				n.untils[i] = until
			}
			return
		}
	}
	n.ids = append(n.ids, msgID)
	n.untils = append(n.untils, until)
}

// ObserveFor records a reservation of duration slots following now.
// Expired entries are pruned first; that is semantics-neutral — an entry
// with until < now can never affect Yielding, YieldingToOther or Until
// (all of which prune before answering) — and keeps the table from
// growing one dead entry per overheard exchange between queries.
func (n *NAVTable) ObserveFor(msgID int64, now sim.Slot, duration int) {
	if duration <= 0 {
		return
	}
	n.prune(now)
	n.Observe(msgID, now+sim.Slot(duration))
}

// Yielding reports whether any reservation is active: the station's
// virtual carrier sense for contention purposes.
func (n *NAVTable) Yielding(now sim.Slot) bool {
	n.prune(now)
	return len(n.ids) > 0
}

// YieldingToOther reports whether a reservation belonging to a different
// exchange than msgID is active — the paper's "in yield state" test for a
// station invited to answer a frame of exchange msgID.
func (n *NAVTable) YieldingToOther(msgID int64, now sim.Slot) bool {
	n.prune(now)
	for _, id := range n.ids {
		if id != msgID {
			return true
		}
	}
	return false
}

// Until returns the latest reserved slot, or now-1 when idle.
func (n *NAVTable) Until(now sim.Slot) sim.Slot {
	n.prune(now)
	max := now - 1
	for _, u := range n.untils {
		if u > max {
			max = u
		}
	}
	return max
}

// Clear removes every reservation.
func (n *NAVTable) Clear() {
	n.ids = n.ids[:0]
	n.untils = n.untils[:0]
}

// prune drops expired reservations.
func (n *NAVTable) prune(now sim.Slot) {
	w := 0
	for i := range n.ids {
		if n.untils[i] >= now {
			n.ids[w] = n.ids[i]
			n.untils[w] = n.untils[i]
			w++
		}
	}
	n.ids = n.ids[:w]
	n.untils = n.untils[:w]
}

// Queue is the FIFO of pending service requests at a station's MAC.
type Queue struct {
	reqs []*sim.Request
}

// Push appends a request.
func (q *Queue) Push(r *sim.Request) { q.reqs = append(q.reqs, r) }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.reqs) }

// Head returns the first request without removing it, or nil when empty.
func (q *Queue) Head() *sim.Request {
	if len(q.reqs) == 0 {
		return nil
	}
	return q.reqs[0]
}

// Pop removes and returns the first request, or nil when empty. The
// remaining requests are shifted down rather than re-slicing from the
// front: queues are almost always a handful of entries, and keeping the
// backing array's origin lets Push reuse its capacity instead of
// allocating on nearly every arrival.
func (q *Queue) Pop() *sim.Request {
	if len(q.reqs) == 0 {
		return nil
	}
	r := q.reqs[0]
	copy(q.reqs, q.reqs[1:])
	q.reqs[len(q.reqs)-1] = nil
	q.reqs = q.reqs[:len(q.reqs)-1]
	return r
}

// DropExpired removes every queued request whose deadline has passed,
// invoking onAbort for each (may be nil).
func (q *Queue) DropExpired(now sim.Slot, onAbort func(*sim.Request)) {
	kept := q.reqs[:0]
	for _, r := range q.reqs {
		if r.Expired(now) {
			if onAbort != nil {
				onAbort(r)
			}
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(q.reqs); i++ {
		q.reqs[i] = nil
	}
	q.reqs = kept
}

// Responder schedules receiver-side control responses (CTS, ACK, NAK)
// for transmission in a future slot. The paper's receivers reply a SIFS
// after the eliciting frame; in the slotted model that is the next slot.
type Responder struct {
	when  []sim.Slot
	frame []*frames.Frame
}

// ScheduleAt queues f for transmission at slot t. Multiple frames may be
// scheduled; Due returns them in schedule order.
func (r *Responder) ScheduleAt(t sim.Slot, f *frames.Frame) {
	r.when = append(r.when, t)
	r.frame = append(r.frame, f)
}

// Due returns a frame scheduled for the given slot (removing it), or nil.
// Frames scheduled for earlier slots that were never sent (station busy)
// are discarded: a stale CTS/ACK is worse than none.
func (r *Responder) Due(now sim.Slot) *frames.Frame {
	for i := 0; i < len(r.when); {
		switch {
		case r.when[i] < now:
			r.drop(i)
		case r.when[i] == now:
			f := r.frame[i]
			r.drop(i)
			return f
		default:
			i++
		}
	}
	return nil
}

// DueReport is Due with stale-drop accounting: every discarded frame is
// handed to dropped before removal, so an event sink can see the
// responses that silently died waiting for the medium. Due stays the
// separate fast path — it runs every tick of every awake station.
func (r *Responder) DueReport(now sim.Slot, dropped func(*frames.Frame)) *frames.Frame {
	for i := 0; i < len(r.when); {
		switch {
		case r.when[i] < now:
			if dropped != nil {
				dropped(r.frame[i])
			}
			r.drop(i)
		case r.when[i] == now:
			f := r.frame[i]
			r.drop(i)
			return f
		default:
			i++
		}
	}
	return nil
}

// Pending reports whether any response is scheduled at or after now.
func (r *Responder) Pending(now sim.Slot) bool {
	for _, t := range r.when {
		if t >= now {
			return true
		}
	}
	return false
}

// CancelIf removes every scheduled response matching the predicate and
// returns how many were cancelled. BSMA receivers use this to withdraw a
// pending NAK when the awaited data frame finally arrives.
func (r *Responder) CancelIf(pred func(*frames.Frame) bool) int {
	n := 0
	for i := 0; i < len(r.frame); {
		if pred(r.frame[i]) {
			r.drop(i)
			n++
			continue
		}
		i++
	}
	return n
}

// Clear drops all scheduled responses.
func (r *Responder) Clear() {
	r.when = r.when[:0]
	for i := range r.frame {
		r.frame[i] = nil
	}
	r.frame = r.frame[:0]
}

func (r *Responder) drop(i int) {
	r.when = append(r.when[:i], r.when[i+1:]...)
	r.frame[i] = nil
	r.frame = append(r.frame[:i], r.frame[i+1:]...)
}

// Timer is a simple one-shot slot timer.
type Timer struct {
	at    sim.Slot
	armed bool
}

// ArmAt sets the timer to fire at slot t.
func (t *Timer) ArmAt(at sim.Slot) { t.at, t.armed = at, true }

// ArmIn sets the timer to fire d slots after now.
func (t *Timer) ArmIn(now sim.Slot, d int) { t.ArmAt(now + sim.Slot(d)) }

// Disarm cancels the timer.
func (t *Timer) Disarm() { t.armed = false }

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.armed }

// Fired reports whether the timer expires at (or before) now, disarming
// it when so.
func (t *Timer) Fired(now sim.Slot) bool {
	if t.armed && now >= t.at {
		t.armed = false
		return true
	}
	return false
}
