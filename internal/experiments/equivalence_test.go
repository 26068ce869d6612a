package experiments_test

// The differential equivalence suite behind the engine's hot-path
// optimizations: the same seed run through the optimized engine and
// through the reference path (Config.Reference — idle-station
// scheduling, the transmission free-list, the geometry caches and the
// LAMM MCS memo all disabled) must produce identical channel-level
// transcripts, identical traced event streams and identical metric
// summaries for every protocol. Any output-bit drift introduced by a
// future optimization fails here with the first diverging event.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/fault"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

// transcript records every channel-level event as a formatted line — a
// maximally unforgiving equality witness: sender, receiver, frame type,
// msgID, duration and slot all participate.
type transcript struct {
	lines []string
}

func (tr *transcript) add(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func (tr *transcript) Kinds() sim.KindSet {
	return sim.KindsOf(sim.EvFrameTx, sim.EvRxOK, sim.EvRxLost)
}

func (tr *transcript) On(ev sim.Event) {
	f := ev.Frame
	switch ev.Kind {
	case sim.EvFrameTx:
		tr.add("tx %d->%v %v msg=%d dur=%d [%d,%d]", ev.Station, f.Dst, f.Type, f.MsgID, f.Duration, ev.Slot, ev.End())
	case sim.EvRxOK:
		tr.add("rx %d<-%v %v msg=%d @%d", ev.Station, f.Src, f.Type, f.MsgID, ev.Slot)
	case sim.EvRxLost:
		tr.add("lost %d<-%v %v msg=%d @%d", ev.Station, f.Src, f.Type, f.MsgID, ev.Slot)
	}
}

// witnesses bundles every equality witness one sink-laden run can
// produce: the channel transcript, the traced event stream,
// the metric summary, the airtime ledger snapshot and the conformance
// auditor's statistics and findings report.
type witnesses struct {
	transcript []string
	events     []byte
	summary    []byte
	ledger     []byte
	audit      []byte
}

// runFull executes one run with the full sink stack attached — the
// channel transcript, the event tracer, an airtime ledger and a
// conformance auditor — and collects every witness. mutate customises the
// configuration before the run (rate, impairments, slot count).
func runFull(t *testing.T, proto experiments.Protocol, reference bool,
	mutate func(cfg *experiments.RunConfig)) witnesses {
	t.Helper()
	cfg := experiments.Defaults(proto, 11)
	cfg.Slots = 2000
	cfg.Reference = reference

	tracer := obs.NewTracer(1 << 20)
	ch := &transcript{}
	reg := obs.NewRegistry()
	led := obs.NewLedger(reg, "eq")
	ap, ok := obs.AuditProtocolFor(string(proto))
	if !ok {
		t.Fatalf("no audit model for %s", proto)
	}
	aud := obs.NewAuditor(ap, cfg.MAC.RetryLimit)
	cfg.Sinks = []sim.Sink{ch, tracer, led, aud}
	if mutate != nil {
		mutate(&cfg)
	}

	res, err := experiments.Run(cfg)
	if err != nil {
		t.Fatalf("%s reference=%v: %v", proto, reference, err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("%s: tracer dropped %d events; raise capacity", proto, tracer.Dropped())
	}
	var w witnesses
	w.transcript = ch.lines
	var events bytes.Buffer
	if err := tracer.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	w.events = events.Bytes()
	if w.summary, err = json.Marshal(res.Summary); err != nil {
		t.Fatal(err)
	}
	snap := led.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("%s reference=%v: ledger not conserved: %+v", proto, reference, snap)
	}
	if w.ledger, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	var audit bytes.Buffer
	fmt.Fprintf(&audit, "audited=%d violations=%d\n", aud.Audited(), aud.Violations())
	for _, f := range aud.Findings() {
		fmt.Fprintf(&audit, "slot %d msg %d station %d [%s] %s\n", f.Slot, f.MsgID, f.Station, f.Rule, f.Detail)
	}
	w.audit = audit.Bytes()
	return w
}

// TestOptimizedMatchesReference is the differential gate for all five
// protocols of the paper's evaluation at the Table 2 rate: transcripts,
// event streams, summaries, the airtime ledger and the conformance
// auditor must be byte-identical to the reference engine's.
func TestOptimizedMatchesReference(t *testing.T) {
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opt := runFull(t, proto, false, nil)
			ref := runFull(t, proto, true, nil)
			if len(opt.transcript) == 0 {
				t.Fatal("run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, opt, ref)
		})
	}
}

// TestOptimizedMatchesReferenceSkipping is the differential gate for the
// event clock: Figure 6(b)'s lowest rate leaves long idle stretches the
// optimized engine jumps over, and the run must stay byte-identical to
// the reference engine ticking every slot — transcripts, event streams,
// summaries, the airtime ledger (fed idle spans in bulk on the
// optimized side, slot by slot on the reference side) and the
// conformance auditor all agree for every protocol.
func TestOptimizedMatchesReferenceSkipping(t *testing.T) {
	sparse := func(cfg *experiments.RunConfig) {
		cfg.Rate = 0.00025
		cfg.Slots = 4000
	}
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opt := runFull(t, proto, false, sparse)
			ref := runFull(t, proto, true, sparse)
			if len(opt.transcript) == 0 {
				t.Fatal("sparse run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, opt, ref)
		})
	}
}

// diffWitnesses fails the test on the first diverging witness.
func diffWitnesses(t *testing.T, opt, ref witnesses) {
	t.Helper()
	if len(opt.transcript) != len(ref.transcript) {
		t.Fatalf("transcript length diverged: optimized %d events, reference %d",
			len(opt.transcript), len(ref.transcript))
	}
	for i := range opt.transcript {
		if opt.transcript[i] != ref.transcript[i] {
			t.Fatalf("transcript diverged at event %d:\n  optimized: %s\n  reference: %s",
				i, opt.transcript[i], ref.transcript[i])
		}
	}
	if !bytes.Equal(opt.events, ref.events) {
		t.Error("traced event streams diverged")
	}
	if !bytes.Equal(opt.summary, ref.summary) {
		t.Errorf("summaries diverged:\n  optimized: %s\n  reference: %s", opt.summary, ref.summary)
	}
	if !bytes.Equal(opt.ledger, ref.ledger) {
		t.Errorf("ledger snapshots diverged:\n  optimized: %s\n  reference: %s", opt.ledger, ref.ledger)
	}
	if !bytes.Equal(opt.audit, ref.audit) {
		t.Errorf("audit reports diverged:\n  optimized: %s\n  reference: %s", opt.audit, ref.audit)
	}
}

// TestOptimizedMatchesReferenceImpaired adds the impairment subsystem to
// the skipping gate: i.i.d. frame erasures plus node crash/recover
// schedules, whose up/down transitions become wake obligations on the
// optimized path. The injector's lazily materialised schedules must end
// in the identical state either way.
func TestOptimizedMatchesReferenceImpaired(t *testing.T) {
	impaired := func(cfg *experiments.RunConfig) {
		cfg.Rate = 0.00025
		cfg.Slots = 4000
		cfg.Fault = fault.Config{
			PER:   0.02,
			Crash: fault.Crash{MTTF: 1500, MTTR: 150},
		}
	}
	for _, proto := range experiments.AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opt := runFull(t, proto, false, impaired)
			ref := runFull(t, proto, true, impaired)
			if len(opt.transcript) == 0 {
				t.Fatal("impaired run produced no traffic; the comparison is vacuous")
			}
			diffWitnesses(t, opt, ref)
		})
	}
}

// TestOptimizedMatchesReferenceSeeds reruns the gate for LAMM — the
// protocol with the deepest cache stack (distance tables, MCS memo,
// idle-skip) — across several seeds, guarding against an equivalence
// that only holds on one lucky trajectory. (Mid-run topology swaps,
// which exercise the generation-stamped cache invalidation, are covered
// by the sim package's own tests; RunConfig does not expose a slot
// hook.)
func TestOptimizedMatchesReferenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfgO := experiments.Defaults(experiments.LAMM, seed)
		cfgO.Slots = 1200
		cfgR := cfgO
		cfgR.Reference = true
		resO, err := experiments.Run(cfgO)
		if err != nil {
			t.Fatal(err)
		}
		resR, err := experiments.Run(cfgR)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(resO.Summary)
		b, _ := json.Marshal(resR.Summary)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: summaries diverged:\n  optimized: %s\n  reference: %s", seed, a, b)
		}
	}
}
