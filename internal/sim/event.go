package sim

import (
	"fmt"

	"relmac/internal/frames"
)

// EventKind classifies the records of a run's one event stream.
type EventKind uint8

// Event kinds. The first seven are the protocol-level events every
// paper metric is counted from; the rest are the channel-level and
// lifecycle events the tracers, airtime ledger, flight recorder and
// conformance auditor add.
const (
	// EvSubmit: a request reached its station's MAC.
	EvSubmit EventKind = iota
	// EvContention: the sender began a CSMA/CA contention phase for the
	// request — the quantity of Figure 9 and §6.
	EvContention
	// EvFrameTx: a frame transmission started.
	EvFrameTx
	// EvDataRx: an intended receiver decoded the DATA frame of a message.
	EvDataRx
	// EvRound: a multi-round group protocol (BMMM/LAMM batch rounds, BMW
	// per-receiver rounds) closed one round.
	EvRound
	// EvComplete: the sending MAC considers the request served.
	EvComplete
	// EvAbort: the sending MAC abandoned the request.
	EvAbort
	// EvRxOK: a receiver decoded a frame (at the frame's last slot).
	EvRxOK
	// EvRxLost: a frame ended corrupted or erased at an in-range receiver.
	EvRxLost
	// EvSlot: the channel state over a span of slots.
	EvSlot
	// EvServiceStart: a MAC dequeued the request into service — the
	// boundary between queueing delay and service time.
	EvServiceStart
	// EvRoundStart: a group protocol is opening a round, before the
	// round's contention.
	EvRoundStart
	// EvResponseDrop: a station discarded a scheduled receiver-side
	// response (CTS/ACK/NAK) that went stale before the medium allowed
	// its transmission.
	EvResponseDrop
	numEventKinds
)

// NumEventKinds is the number of distinct event kinds.
const NumEventKinds = int(numEventKinds)

// String implements fmt.Stringer. The forms of the first seven kinds are
// the "event" field of the obs JSONL trace, so they are part of its
// schema.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvContention:
		return "contention"
	case EvFrameTx:
		return "frame-tx"
	case EvDataRx:
		return "data-rx"
	case EvRound:
		return "round"
	case EvComplete:
		return "complete"
	case EvAbort:
		return "abort"
	case EvRxOK:
		return "rx-ok"
	case EvRxLost:
		return "rx-lost"
	case EvSlot:
		return "slot"
	case EvServiceStart:
		return "service-start"
	case EvRoundStart:
		return "round-start"
	case EvResponseDrop:
		return "response-drop"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// KindSet is a set of event kinds, one bit per kind.
type KindSet uint16

// KindsOf returns the set holding the given kinds.
func KindsOf(kinds ...EventKind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// ProtocolKinds is the set of the seven protocol-level kinds, submit
// through abort.
const ProtocolKinds KindSet = 1<<(EvAbort+1) - 1

// Has reports whether the set holds the kind.
func (s KindSet) Has(k EventKind) bool { return s&(1<<k) != 0 }

// AiringTx describes one transmission in the air during a slot. Frame is
// the frame being carried; Start and End are the inclusive slot range of
// its airtime.
type AiringTx struct {
	Frame  *frames.Frame
	Sender int
	Start  Slot
	End    Slot
}

// Event is one record of the stream, passed by value — in registers:
// eight word-sized fields are what the register ABI passes alongside an
// interface receiver, which is why Airing is a pointer. Which fields are
// meaningful depends on the kind:
//
//	kind            Slot    Station   Frame  Req  A             B        Airing
//	submit          now     req.Src          req
//	contention      now     req.Src          req
//	frame-tx        start   sender    f           end
//	data-rx         now     receiver  f
//	round           now     req.Src          req  residual
//	complete        now     req.Src          req
//	abort           now     req.Src          req  reason
//	rx-ok, rx-lost  now     receiver  f
//	slot            from    -1                    to            collided  airing
//	service-start   now     req.Src          req
//	round-start     now     req.Src          req  round         polled
//	response-drop   now     station   f
//
// End slots are inclusive. A frame-tx spans [Slot, End()] on the
// sender's radio. A slot event covers [Slot, End()]: a simulated slot is
// a span of one carrying every transmission in the air (Txs) and
// whether two or more signals arrived at any single station (Collided);
// a stretch the event clock skipped is one span with no airing and no
// collision — exactly what stepping each of its slots would report. A
// round's residual is the number of intended receivers still unserved
// after it; a round-start's round is the protocol's 1-based ordinal
// (the batch ordinal for BMMM/LAMM, the receiver ordinal for BMW, whose
// retries of one receiver open no new round), polled the receivers it
// polls. A response-drop's Frame is the discarded response.
//
// Airing points at the engine's reused scratch list (nil on a skipped
// span), and Frame and Req are live simulation objects: sinks must not
// retain the list nor mutate what they are shown.
type Event struct {
	Kind    EventKind
	Slot    Slot
	Station int
	Frame   *frames.Frame
	Req     *Request
	A, B    int
	Airing  *[]AiringTx
}

// Txs returns a slot event's airing list: the transmissions in the air,
// none for a skipped span.
func (ev Event) Txs() []AiringTx {
	if ev.Airing == nil {
		return nil
	}
	return *ev.Airing
}

// End returns the inclusive last slot of a frame-tx or slot event.
func (ev Event) End() Slot { return Slot(ev.A) }

// Collided reports a slot event's collision flag.
func (ev Event) Collided() bool { return ev.B != 0 }

// Reason returns an abort event's reason.
func (ev Event) Reason() AbortReason { return AbortReason(ev.A) }

// Sink consumes the event stream. Kinds is the set of kinds the sink
// wants; the engine reads it once, at New, and hands On only events of
// those kinds, so a kind nobody wants costs one bit test at its
// emission site. Sinks observe: they must be cheap, must not touch the
// engine PRNG and must not mutate engine state (relmaclint's hookpure
// check proves both), so a run is byte-identical with and without any
// sink attached.
type Sink interface {
	Kinds() KindSet
	On(ev Event)
}

// MultiSink fans the stream out to several sinks in registration order,
// each receiving only the kinds it wants. Build one with Combine. If a
// sink panics, the panic is re-raised annotated with the sink's position
// and concrete type, so a misbehaving attachment identifies itself
// instead of being mistaken for an engine bug.
type MultiSink struct {
	sinks []Sink
	kinds []KindSet
	all   KindSet
}

// Combine builds a Sink dispatching to every non-nil argument in order.
// It returns nil when none remain and the sink itself when exactly one
// remains, keeping those paths free of fan-out overhead.
func Combine(sinks ...Sink) Sink {
	var last Sink
	n := 0
	for _, s := range sinks {
		if s != nil {
			last = s
			n++
		}
	}
	if n <= 1 {
		return last
	}
	m := &MultiSink{sinks: make([]Sink, 0, n), kinds: make([]KindSet, 0, n)}
	for _, s := range sinks {
		if s != nil {
			m.add(s)
		}
	}
	return m
}

// add appends a member, reading its kind set once.
func (m *MultiSink) add(s Sink) {
	k := s.Kinds()
	m.sinks = append(m.sinks, s)
	m.kinds = append(m.kinds, k)
	m.all |= k
}

// Kinds implements Sink: the union of the members' sets.
func (m *MultiSink) Kinds() KindSet { return m.all }

// On implements Sink. A member's panic is re-raised with the member's
// index and type attached.
func (m *MultiSink) On(ev Event) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: sink %d/%d (%T) panicked: %v", i+1, len(m.sinks), m.sinks[i], r))
		}
	}()
	for ; i < len(m.sinks); i++ {
		if m.kinds[i].Has(ev.Kind) {
			m.sinks[i].On(ev)
		}
	}
}
