package obs_test

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"relmac/internal/experiments"
	"relmac/internal/obs"
)

// TestMetricsServerConcurrentWithRun hammers the /metrics and /snapshot
// handlers from several goroutines while a live simulation feeds the
// registry, airtime ledger, tracer, flight recorder and auditor they
// export — the concurrency contract of MetricsServer, meaningful under
// `go test -race`. (Goroutines are banned in internal/obs itself by the
// simsafe check; tests are exactly the caller side that owns them.)
func TestMetricsServerConcurrentWithRun(t *testing.T) {
	reg := obs.NewRegistry()
	led := obs.NewLedger(reg, "BMMM")
	fl := obs.NewFlight(reg, "BMMM", 0)
	aud := obs.NewAuditor(obs.AuditBMMM, 0)
	tr := obs.NewTracer(1 << 12)

	msrv := obs.NewMetricsServer(reg)
	msrv.AddLedger("BMMM", led)
	msrv.AddTracer("BMMM", tr)
	msrv.AddFlight("BMMM", fl)
	msrv.AddAuditor("BMMM", aud)
	msrv.Gauge("test.gauge", func() float64 { return float64(fl.Stats().Tracked) })
	handler := msrv.Handler()

	cfg := experiments.Defaults(experiments.BMMM, 11)
	cfg.Nodes, cfg.Slots = 60, 5000
	cfg.Sinks = append(cfg.Sinks, fl, aud, tr, led)

	done := make(chan error, 1)
	go func() {
		_, err := experiments.Run(cfg)
		done <- err
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, path := range []string{"/metrics", "/snapshot"} {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("%s returned %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// One post-run snapshot must decode and carry every registered section.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"registry", "ledgers", "tracers", "flights", "audits", "gauges"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q section", key)
		}
	}
	if fl.Stats().Tracked == 0 {
		t.Error("flight recorder tracked no messages")
	}
	if aud.Audited() == 0 {
		t.Error("auditor audited no messages")
	}
}
