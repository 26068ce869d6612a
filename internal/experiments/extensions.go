package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"relmac/internal/core"
	"relmac/internal/frames"
	"relmac/internal/metrics"
	"relmac/internal/mobility"
	"relmac/internal/report"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"

	mrand "math/rand"
)

// This file holds the extension studies beyond the paper's evaluation:
// the mobility sweep (random waypoint; the paper is static-only) and the
// LAMM location-error sweep (the paper assumes GPS accuracy suffices).

// MobilitySpeeds are the node speeds swept by the mobility study, in
// unit-square units per slot. At the paper's scale (radius 0.2 ≈ 500 ft)
// 0.001/slot corresponds to crossing half a radio radius within a
// message's 100-slot lifetime.
var MobilitySpeeds = []float64{0, 0.0005, 0.001, 0.002, 0.004}

// GPSSigmas are the location-error standard deviations swept by the
// location-error study (unit-square units; the radio radius is 0.2).
var GPSSigmas = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

// pool runs the tasks on one worker per CPU.
func pool(tasks []func()) {
	workers := runtime.NumCPU()
	if workers < 1 {
		workers = 1
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}

// runMobile executes one run with random-waypoint mobility at the given
// speed, refreshing topology every beaconEvery slots.
func runMobile(cfg RunConfig, speed float64, beaconEvery int) (metrics.Summary, error) {
	if err := cfg.Validate(); err != nil {
		return metrics.Summary{}, err
	}
	inj, fseed := faultPieces(&cfg)
	factory, err := faultFactory(&cfg, fseed)
	if err != nil {
		return metrics.Summary{}, err
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	model := mobility.NewWaypoint(cfg.Nodes, speed, speed, 0, rng)
	tp := topo.FromPoints(model.Positions(), cfg.Radius)
	gen := traffic.NewGenerator(tp)
	gen.Rate = cfg.Rate
	gen.Mix = cfg.Mix
	gen.Timeout = cfg.Timeout
	gen.Seed = TrafficSeed(cfg.Seed)
	driver := &mobility.Driver{
		Model: model, Radius: cfg.Radius, BeaconEvery: beaconEvery,
		OnRefresh: func(newTp *topo.Topology) { gen.Topo = newTp },
	}
	col := metrics.NewCollector()
	var imp sim.Impairment
	if inj != nil {
		imp = inj
	}
	eng := sim.New(sim.Config{
		Topo: tp, Capture: cfg.Capture, ErrRate: cfg.ErrRate,
		Impairment: imp,
		Seed:       cfg.Seed ^ 0x1e3779b97f4a7c15, Sink: col,
		SlotHook: driver.Hook(),
	})
	eng.AttachMACs(factory)
	eng.Run(cfg.Slots, gen)
	return col.Summarize(cfg.Threshold, metrics.GroupFilter(sim.Slot(cfg.Slots))), nil
}

// Mobility sweeps node speed for every protocol and reports the
// successful delivery rate — the extension study of DESIGN.md §22.
// Topology refreshes every 50 slots (the beacon period).
func Mobility(o Options) (*report.Table, error) {
	o = o.normal()
	const beaconEvery = 50
	stats := make([][]metrics.SummaryStats, len(MobilitySpeeds))
	for i := range stats {
		stats[i] = make([]metrics.SummaryStats, len(o.Protocols))
	}
	var mu sync.Mutex
	var firstErr error
	var tasks []func()
	for pi := range MobilitySpeeds {
		for pr := range o.Protocols {
			for run := 0; run < o.Runs; run++ {
				pi, pr, run := pi, pr, run
				tasks = append(tasks, func() {
					cfg := Defaults(o.Protocols[pr], seedFor(pi, pr, run))
					o.apply(&cfg)
					s, err := runMobile(cfg, MobilitySpeeds[pi], beaconEvery)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					stats[pi][pr].Add(s)
					mu.Unlock()
				})
			}
		}
	}
	pool(tasks)
	if firstErr != nil {
		return nil, firstErr
	}
	header := append([]string{"speed (units/slot)"}, protocolNames(o.Protocols)...)
	tb := report.NewTable("Extension: successful delivery rate vs node speed (random waypoint)", header...)
	for pi, speed := range MobilitySpeeds {
		row := []interface{}{fmt.Sprintf("%g", speed)}
		for pr := range o.Protocols {
			row = append(row, stats[pi][pr].SuccessRate.Mean())
		}
		tb.AddRow(row...)
	}
	tb.Note = "beacon/topology refresh every 50 slots; membership staleness dominates"
	return tb, nil
}

// LocationError sweeps LAMM's GPS-error standard deviation and reports
// the successful delivery rate and the fraction of intended receivers
// actually reached — the location-error study of DESIGN.md §20.
func LocationError(o Options) (*report.Table, error) {
	o = o.normal()
	type cell struct{ succ, reach metrics.Sample }
	cells := make([]cell, len(GPSSigmas))
	var mu sync.Mutex
	var firstErr error
	var tasks []func()
	for pi := range GPSSigmas {
		for run := 0; run < o.Runs; run++ {
			pi, run := pi, run
			tasks = append(tasks, func() {
				seed := seedFor(pi, 0, run)
				cfg := Defaults(LAMM, seed)
				cfg.Slots = o.Slots
				factory := core.NewLAMMNoisy(cfg.MAC, GPSSigmas[pi], seed+777)
				rng := mrand.New(mrand.NewSource(seed))
				tp := topo.Uniform(cfg.Nodes, cfg.Radius, rng)
				gen := traffic.NewGenerator(tp)
				gen.Seed = TrafficSeed(seed)
				col := metrics.NewCollector()
				eng := sim.New(sim.Config{
					Topo: tp, Capture: cfg.Capture,
					Seed: seed * 31, Sink: col,
				})
				eng.AttachMACs(factory)
				eng.Run(cfg.Slots, gen)
				s := col.Summarize(cfg.Threshold, metrics.GroupFilter(sim.Slot(cfg.Slots)))
				mu.Lock()
				if s.Messages > 0 {
					cells[pi].succ.Add(s.SuccessRate)
					cells[pi].reach.Add(s.MeanDeliveredFraction)
				}
				mu.Unlock()
			})
		}
	}
	pool(tasks)
	if firstErr != nil {
		return nil, firstErr
	}
	tb := report.NewTable("Extension: LAMM under GPS location error",
		"sigma", "sigma/radius", "delivery rate", "receivers reached")
	for pi, sg := range GPSSigmas {
		tb.AddRow(fmt.Sprintf("%g", sg), fmt.Sprintf("%.0f%%", 100*sg/0.2),
			cells[pi].succ.Mean(), cells[pi].reach.Mean())
	}
	tb.Note = "flat curves support the paper's claim that geolocation accuracy suffices"
	return tb, nil
}

// Overhead measures the §5 claim that LAMM "significantly reduces the
// number of RTS, CTS, RAK and ACK frames" relative to BMMM: control and
// data frames transmitted per completed group message, under a pure
// multicast/broadcast workload (no unicast, so every frame counted
// belongs to group service).
func Overhead(o Options) (*report.Table, error) {
	o = o.normal()
	type counts struct {
		rts, cts, data, ack, rak, nak, msgs metrics.Sample
	}
	cells := make([]counts, len(o.Protocols))
	var mu sync.Mutex
	var firstErr error
	var tasks []func()
	for pr := range o.Protocols {
		for run := 0; run < o.Runs; run++ {
			pr, run := pr, run
			tasks = append(tasks, func() {
				cfg := Defaults(o.Protocols[pr], seedFor(0, pr, run))
				o.apply(&cfg)
				cfg.Mix = traffic.Mix{Multicast: 0.5, Broadcast: 0.5}
				res, err := Run(cfg)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				done := float64(res.Summary.CompletedCount)
				if done == 0 {
					return
				}
				c := &cells[pr]
				c.rts.Add(float64(res.Collector.FrameCount(frames.RTS)) / done)
				c.cts.Add(float64(res.Collector.FrameCount(frames.CTS)) / done)
				c.data.Add(float64(res.Collector.FrameCount(frames.Data)) / done)
				c.ack.Add(float64(res.Collector.FrameCount(frames.ACK)) / done)
				c.rak.Add(float64(res.Collector.FrameCount(frames.RAK)) / done)
				c.nak.Add(float64(res.Collector.FrameCount(frames.NAK)) / done)
				c.msgs.Add(done)
			})
		}
	}
	pool(tasks)
	if firstErr != nil {
		return nil, firstErr
	}
	tb := report.NewTable("Extension: frames transmitted per completed group message",
		"protocol", "RTS", "CTS", "DATA", "ACK", "RAK", "NAK")
	for pr, p := range o.Protocols {
		c := &cells[pr]
		tb.AddRow(string(p), c.rts.Mean(), c.cts.Mean(), c.data.Mean(),
			c.ack.Mean(), c.rak.Mean(), c.nak.Mean())
	}
	tb.Note = "pure group workload (no unicast); paper §5 predicts LAMM ≪ BMMM on control frames"
	return tb, nil
}
