package fault

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"relmac/internal/core"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/obs"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFaultGoldenBurstTrace pins the full event trace of one BMMM
// multicast over a Gilbert–Elliott bursty channel at a fixed seed. Any
// change to the impairment hash scheme, the chain stepping, or the
// engine's impairment hook shows up as a diff of this file — the
// fault-injection analogue of the clean-channel Figure 2 golden.
func TestFaultGoldenBurstTrace(t *testing.T) {
	inj := NewInjector(Config{
		GE:   GilbertElliott{PGoodBad: 0.15, PBadGood: 0.25, PERBad: 1},
		Seed: 5,
	})
	pts := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.5, 0.6), geom.Pt(0.42, 0.42),
	}
	tp := topo.FromPoints(pts, 0.2)
	tracer := obs.NewTracer(0)
	eng := sim.New(sim.Config{Topo: tp, Sink: tracer, Impairment: inj})
	eng.AttachMACs(core.NewBMMM(mac.DefaultConfig()))
	script := traffic.NewScript()
	script.At(0, &sim.Request{ID: 1, Kind: sim.Multicast, Src: 0,
		Dests: []int{1, 2, 3}, Deadline: 1000})
	eng.Run(300, script)

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bmmm_ge_trace.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/fault -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("bursty-channel trace diverged from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
	if iid, ge := inj.Erasures(); ge == 0 || iid != 0 {
		t.Errorf("Erasures = (%d, %d): the pinned run must lose frames to the burst axis", iid, ge)
	}
}
