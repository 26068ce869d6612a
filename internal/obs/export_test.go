package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/sim"
)

func TestHistogramQuantileUniform(t *testing.T) {
	// 100 values uniform over (0, 100] in ten equal buckets: the
	// interpolated quantiles should track the exact ones closely.
	h := newHistogram(LinearBuckets(10, 10, 10))
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	cases := []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.10, 10}, {1.0, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1 {
			t.Errorf("Quantile(%g) = %g, want ≈ %g", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileSkewed(t *testing.T) {
	// 90 small values, 10 large: p50 in the first bucket, p95+ in the
	// second.
	h := newHistogram([]float64{10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(60)
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 10 {
		t.Errorf("p50 = %g, want within (0, 10]", p50)
	}
	if p95 := h.Quantile(0.95); p95 <= 10 || p95 > 100 {
		t.Errorf("p95 = %g, want within (10, 100]", p95)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	h := newHistogram([]float64{10})
	h.Observe(1000)
	h.Observe(2000)
	if got := h.Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %g, want clamp to last bound 10", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{10})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(7)
	reg.Histogram("h", 1, 2, 4).Observe(3)
	s := reg.Snapshot()
	if s.Counters["a.b"] != 7 {
		t.Errorf("counter = %d, want 7", s.Counters["a.b"])
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Mean != 3 {
		t.Errorf("hist snapshot = %+v, want count 1 mean 3", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Errorf("counts/bounds shape: %d vs %d", len(hs.Counts), len(hs.Bounds))
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot not marshalable: %v", err)
	}
}

func TestTracerForcedWrapSurfacesDrops(t *testing.T) {
	tr := NewTracer(4)
	req := &sim.Request{ID: 1, Src: 0}
	for i := 0; i < 10; i++ {
		feed{tr}.req(sim.EvContention, req, sim.Slot(i), 0)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(jsonl.String(), "\n", 2)[0]
	var meta struct {
		Event    string `json:"event"`
		Dropped  int64  `json:"dropped"`
		Buffered int    `json:"buffered"`
	}
	if err := json.Unmarshal([]byte(first), &meta); err != nil {
		t.Fatalf("first JSONL line not parseable: %v (%q)", err, first)
	}
	if meta.Event != "tracer-meta" || meta.Dropped != 6 || meta.Buffered != 4 {
		t.Errorf("meta line = %+v, want tracer-meta/6/4", meta)
	}
	if got := strings.Count(jsonl.String(), "\n"); got != 5 {
		t.Errorf("JSONL lines = %d, want 5 (meta + 4 events)", got)
	}

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "tracer_dropped" && ev.Ph == "M" {
			found = true
			if d, _ := ev.Args["dropped"].(float64); d != 6 {
				t.Errorf("chrome dropped = %v, want 6", ev.Args["dropped"])
			}
		}
	}
	if !found {
		t.Error("chrome trace missing tracer_dropped metadata event")
	}
}

func TestTracerNoWrapNoMeta(t *testing.T) {
	tr := NewTracer(16)
	feed{tr}.req(sim.EvContention, &sim.Request{ID: 1}, 0, 0)
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonl.String(), "tracer-meta") {
		t.Error("complete trace should carry no meta line")
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(chrome.String(), "tracer_dropped") {
		t.Error("complete chrome trace should carry no drop metadata")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"BMMM.airtime.idle":   "relmac_bmmm_airtime_idle",
		"802.11.frames.RTS":   "relmac_802_11_frames_rts",
		"sweep progress (%)":  "relmac_sweep_progress",
		"already_fine":        "relmac_already_fine",
		"LAMM.aborts.retries": "relmac_lamm_aborts_retries",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promParse sanity-checks Prometheus text exposition: every non-comment
// line must be "name[{labels}] value" with a parseable float value, and
// every histogram must end with an +Inf bucket matching _count.
func promParse(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if name == "" || val == "" {
			t.Fatalf("empty name or value: %q", line)
		}
		samples[name] = val
	}
	return samples
}

func TestMetricsServerPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("BMMM.airtime.idle").Add(42)
	reg.Histogram("BMMM.contention_phases", 1, 2, 4).Observe(2)
	reg.Histogram("BMMM.contention_phases").Observe(9)
	srv := NewMetricsServer(reg)
	srv.Gauge("sweep.progress", func() float64 { return 0.5 })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples := promParse(t, rec.Body.String())
	if samples["relmac_bmmm_airtime_idle"] != "42" {
		t.Errorf("counter sample = %q, want 42", samples["relmac_bmmm_airtime_idle"])
	}
	if samples[`relmac_bmmm_contention_phases_bucket{le="+Inf"}`] != "2" {
		t.Errorf("+Inf bucket = %q, want 2", samples[`relmac_bmmm_contention_phases_bucket{le="+Inf"}`])
	}
	if samples["relmac_bmmm_contention_phases_count"] != "2" {
		t.Errorf("_count = %q, want 2", samples["relmac_bmmm_contention_phases_count"])
	}
	if samples[`relmac_bmmm_contention_phases_bucket{le="2"}`] != "1" {
		t.Errorf(`le="2" bucket = %q, want 1 (cumulative)`, samples[`relmac_bmmm_contention_phases_bucket{le="2"}`])
	}
	if samples["relmac_sweep_progress"] != "0.5" {
		t.Errorf("gauge = %q, want 0.5", samples["relmac_sweep_progress"])
	}
	if !strings.Contains(rec.Body.String(), "# TYPE relmac_bmmm_contention_phases histogram") {
		t.Error("missing histogram TYPE comment")
	}
}

func TestMetricsServerSnapshot(t *testing.T) {
	reg := NewRegistry()
	srv := NewMetricsServer(reg)
	l := NewLedger(reg, "BMMM")
	feed{l}.slot(0, nil, false)
	feed{l}.slot(1, []sim.AiringTx{{Frame: &frames.Frame{Type: frames.Data, MsgID: 1}, Sender: 0}}, false)
	srv.AddLedger("BMMM", l)
	srv.Extra("drift", func() any { return map[string]float64{"rel_err": 0.01} })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var out struct {
		Registry RegistrySnapshot          `json:"registry"`
		Ledgers  map[string]LedgerSnapshot `json:"ledgers"`
		Drift    map[string]float64        `json:"drift"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	ls, ok := out.Ledgers["BMMM"]
	if !ok {
		t.Fatal("snapshot missing ledger")
	}
	if ls.TotalSlots != 2 || ls.Categories["data"] != 1 || ls.Categories["idle"] != 1 {
		t.Errorf("ledger snapshot = %+v", ls)
	}
	if out.Drift["rel_err"] != 0.01 {
		t.Errorf("extra payload = %+v", out.Drift)
	}
	if out.Registry.Counters["BMMM.airtime.total"] != 2 {
		t.Errorf("registry in snapshot = %+v", out.Registry.Counters)
	}
}

func TestMetricsServerIndex(t *testing.T) {
	srv := NewMetricsServer(NewRegistry())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "/metrics") {
		t.Errorf("index body = %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown path status = %d, want 404", rec.Code)
	}
}
