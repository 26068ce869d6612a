// Emergency reporting: the motivating scenario of the paper's
// introduction. A monitoring station detects an event and must push an
// alert to every station in range — reliably, within a 300-slot
// deadline — while the rest of the network keeps generating background
// traffic that collides with the alert.
//
// The example runs the identical scenario (same topology, same background
// traffic, same seeds) under the stock 802.11 multicast, BSMA, BMW, BMMM
// and LAMM, and reports how often the alert actually reached ≥90% of its
// receivers before its deadline.
//
// Run with:
//
//	go run ./examples/emergency
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"relmac/internal/capture"

	"relmac/internal/experiments"
	"relmac/internal/metrics"
	"relmac/internal/report"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

// alertSource layers a scripted high-priority alert over background
// traffic from the standard generator.
type alertSource struct {
	background *traffic.Generator
	alertAt    sim.Slot
	alert      *sim.Request
}

func (s *alertSource) Arrivals(now sim.Slot, rng *rand.Rand) []*sim.Request {
	out := s.background.Arrivals(now, rng)
	if now == s.alertAt {
		out = append(out, s.alert)
	}
	return out
}

func main() {
	seedBase := flag.Int64("seed", 1000, "base RNG seed; trial t uses seed+t")
	flag.Parse()
	const (
		nodes   = 100
		radius  = 0.2
		slots   = 2000
		trials  = 20
		alertAt = 500
	)

	tb := report.NewTable(
		fmt.Sprintf("Emergency alert under background traffic (%d trials, %d nodes)", trials, nodes),
		"protocol", "alert delivered ≥90%", "mean receivers reached", "mean latency (slots)")

	for _, p := range experiments.AllProtocols {
		okCount := 0
		var reach, latency float64
		completed := 0
		for trial := 0; trial < trials; trial++ {
			seed := *seedBase + int64(trial)
			rng := rand.New(rand.NewSource(seed))
			tp := topo.Uniform(nodes, radius, rng)

			// The alert sender is the best-connected station.
			sender, best := 0, -1
			for i := 0; i < tp.N(); i++ {
				if tp.Degree(i) > best {
					sender, best = i, tp.Degree(i)
				}
			}
			alert := &sim.Request{
				ID: 1 << 40, Kind: sim.Broadcast, Src: sender,
				Dests:   append([]int(nil), tp.Neighbors(sender)...),
				Arrival: alertAt, Deadline: alertAt + 300,
			}
			gen := traffic.NewGenerator(tp)
			gen.Rate = 0.0015 // heavier-than-default background load
			gen.Seed = experiments.TrafficSeed(seed)

			col := metrics.NewCollector()
			eng := sim.New(sim.Config{Topo: tp, Sink: col, Seed: seed * 7, Capture: capture.ZorziRao{}})
			factory, err := experiments.Factory(p, experiments.Defaults(p, seed).MAC)
			if err != nil {
				panic(err)
			}
			eng.AttachMACs(factory)
			eng.Run(slots, &alertSource{background: gen, alertAt: alertAt, alert: alert})

			for _, rec := range col.Records() {
				if rec.ID != alert.ID {
					continue
				}
				if rec.Successful(0.9) {
					okCount++
				}
				reach += rec.DeliveredFraction()
				if rec.Completed {
					completed++
					latency += float64(rec.CompletionTime())
				}
			}
		}
		meanLatency := 0.0
		if completed > 0 {
			meanLatency = latency / float64(completed)
		}
		tb.AddRow(string(p),
			fmt.Sprintf("%d/%d", okCount, trials),
			fmt.Sprintf("%.1f%%", 100*reach/float64(trials)),
			fmt.Sprintf("%.1f", meanLatency))
	}
	tb.Note = "delivery counts actual receptions; a protocol may 'complete' without delivering"
	fmt.Println()
	tb.Render(printWriter{})
}

// printWriter adapts fmt printing for report.Table.
type printWriter struct{}

func (printWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
