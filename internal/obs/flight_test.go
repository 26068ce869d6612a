package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"relmac/internal/baseline/bmw"
	"relmac/internal/baseline/dcf"
	"relmac/internal/baseline/tgbcast"
	"relmac/internal/core"
	"relmac/internal/experiments"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/obs"
	"relmac/internal/prototest"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// flightProtocols is the auditable protocol set with its MAC factories,
// in golden-file order.
var flightProtocols = []struct {
	name    string
	factory func(mac.Config) func(int, *sim.Env) sim.MAC
}{
	{"plain", dcf.NewPlain},
	{"bsma", tgbcast.NewBSMA},
	{"bmw", bmw.New},
	{"bmmm", core.NewBMMM},
	{"lamm", core.NewLAMM},
}

// fig2Flight executes the Figure-2 scenario (one multicast from station
// 0 to stations 1-3, clean channel) under the given protocol with a
// flight recorder attached, plus any extra sinks (the auditor in the
// conformance tests).
func fig2Flight(t *testing.T, factory func(mac.Config) func(int, *sim.Env) sim.MAC,
	extra ...sim.Sink) *obs.Flight {
	t.Helper()
	fl := obs.NewFlight(nil, "", 0)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Sink: sim.Combine(append([]sim.Sink{fl}, extra...)...)})
	eng.AttachMACs(factory(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(0, &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(120, script)
	return fl
}

// TestFlightGolden pins the per-message span trees of the Figure-2
// exchange for every audited protocol. The files double as the span
// schema's documentation; regenerate with `go test ./internal/obs
// -update` after an intentional change.
func TestFlightGolden(t *testing.T) {
	for _, tc := range flightProtocols {
		t.Run(tc.name, func(t *testing.T) {
			fl := fig2Flight(t, tc.factory)
			var buf bytes.Buffer
			if err := fl.WriteSpansJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "flight_"+tc.name+"_fig2.jsonl")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run `go test ./internal/obs -update` to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("span trace diverged from golden file %s\ngot:\n%s\nwant:\n%s",
					golden, buf.Bytes(), want)
			}
		})
	}
}

// TestFlightFigure2Spans checks the BMMM span tree structurally: one
// completed message, one round polling all three receivers, the 13-frame
// exchange of Figure 2, and stage sums consistent with the timing model
// (12 control slots, 5 data slots, queueing 0).
func TestFlightFigure2Spans(t *testing.T) {
	fl := fig2Flight(t, core.NewBMMM)
	recs := fl.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Outcome != "complete" {
		t.Fatalf("outcome = %q, want complete", r.Outcome)
	}
	if len(r.Rounds) != 1 || r.Rounds[0].Polled != 3 || r.Rounds[0].Residual != 0 {
		t.Errorf("rounds = %+v, want one round polling 3 with residual 0", r.Rounds)
	}
	if len(r.Frames) != 13 {
		t.Errorf("frames = %d, want 13 (3 RTS/CTS + DATA + 3 RAK/ACK)", len(r.Frames))
	}
	if len(r.Rx) != 3 {
		t.Errorf("data decodes = %d, want 3", len(r.Rx))
	}
	// 6 sender control + 6 receiver control frames at 1 slot each, one
	// 5-slot data frame; the script submits at slot 0 so queueing is 0.
	if r.Stages.Queueing != 0 || r.Stages.Control != 12 || r.Stages.Data != 5 {
		t.Errorf("stages = %+v, want queueing 0, control 12, data 5", r.Stages)
	}
	if got := fl.Stats(); got.Tracked != 1 || got.Completed != 1 || got.InFlight != 0 {
		t.Errorf("stats = %+v, want 1 tracked, 1 completed", got)
	}
}

// TestFlightNeutrality proves the enabled observability path is
// PRNG-neutral: a tracer running alongside a flight recorder and a
// conformance auditor produces byte-for-byte the same event stream as
// the tracer alone (which TestTracerGoldenJSONL pins against the golden
// file).
func TestFlightNeutrality(t *testing.T) {
	alone := obs.NewTracer(0)
	fig2Run(t, alone)

	accompanied := obs.NewTracer(0)
	aud := obs.NewAuditor(obs.AuditBMMM, mac.DefaultConfig().RetryLimit)
	fl := obs.NewFlight(nil, "", 0)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Sink: sim.Combine(accompanied, fl, aud)})
	eng.AttachMACs(core.NewBMMM(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(0, &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(120, script)

	var a, b bytes.Buffer
	if err := alone.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := accompanied.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("tracer stream changed when flight+auditor were attached\nalone:\n%s\naccompanied:\n%s",
			a.Bytes(), b.Bytes())
	}
}

// TestFlightRunNeutrality proves neutrality at full-run scale through
// the experiments wiring: attaching a flight recorder and auditor to a
// default-config run leaves the summary identical to a bare run at the
// same seed.
func TestFlightRunNeutrality(t *testing.T) {
	for _, proto := range []experiments.Protocol{experiments.BMW, experiments.BMMM} {
		bare := experiments.Defaults(proto, 7)
		bare.Nodes, bare.Slots = 40, 2000
		base, err := experiments.Run(bare)
		if err != nil {
			t.Fatal(err)
		}

		wired := experiments.Defaults(proto, 7)
		wired.Nodes, wired.Slots = 40, 2000
		fl := obs.NewFlight(nil, "", 0)
		ap, ok := obs.AuditProtocolFor(string(proto))
		if !ok {
			t.Fatalf("no audit model for %s", proto)
		}
		aud := obs.NewAuditor(ap, wired.MAC.RetryLimit)
		wired.Sinks = append(wired.Sinks, fl, aud)
		res, err := experiments.Run(wired)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(base.Summary, res.Summary) {
			t.Errorf("%s: summary changed when flight+auditor attached:\nbare:  %+v\nwired: %+v",
				proto, base.Summary, res.Summary)
		}
		if v := aud.Violations(); v != 0 {
			t.Errorf("%s: auditor found %d violations on a clean run: %+v", proto, v, aud.Findings())
		}
		if fl.Stats().Tracked == 0 {
			t.Errorf("%s: flight recorder tracked no messages", proto)
		}
	}
}

// TestFlightStageHistograms checks the registry wiring: a Flight built
// over a registry feeds the stage histograms on completion.
func TestFlightStageHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	fl := obs.NewFlight(reg, "BMMM", 0)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	eng := sim.New(sim.Config{Topo: tp, Seed: 1, Sink: fl})
	eng.AttachMACs(core.NewBMMM(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(0, &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(120, script)

	for name, want := range map[string]float64{
		"BMMM.flight.queueing":    0,
		"BMMM.flight.control_air": 12,
		"BMMM.flight.data_air":    5,
	} {
		h := reg.Histogram(name)
		if h.Count() != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count())
			continue
		}
		if h.Mean() != want {
			t.Errorf("%s mean = %g, want %g", name, h.Mean(), want)
		}
	}
	if h := reg.Histogram("BMMM.flight.total"); h.Count() != 1 {
		t.Errorf("total count = %d, want 1", h.Count())
	}
}

// TestFlightCapacity checks the bounded store: messages past the cap are
// counted as dropped, not recorded.
func TestFlightCapacity(t *testing.T) {
	fl := obs.NewFlight(nil, "", 2)
	for i := int64(1); i <= 4; i++ {
		prototest.Feed{Sink: fl}.Submit(&sim.Request{ID: i, Kind: sim.Multicast, Src: 0, Dests: []int{1}}, 0)
	}
	st := fl.Stats()
	if st.Tracked != 2 || st.Dropped != 2 {
		t.Errorf("stats = %+v, want 2 tracked, 2 dropped", st)
	}
	var buf bytes.Buffer
	if err := fl.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	if !bytes.Contains(first, []byte(`"flight-meta"`)) {
		t.Errorf("dropped messages must surface as a flight-meta header, got %s", first)
	}
}

// TestFlightIgnoresUnicast checks that DCF unicast traffic stays out of
// the flight recorder.
func TestFlightIgnoresUnicast(t *testing.T) {
	fl := obs.NewFlight(nil, "", 0)
	prototest.Feed{Sink: fl}.Submit(&sim.Request{ID: 1, Kind: sim.Unicast, Src: 0, Dests: []int{1}}, 0)
	if st := fl.Stats(); st.Tracked != 0 {
		t.Errorf("tracked = %d, want 0 for unicast", st.Tracked)
	}
}
