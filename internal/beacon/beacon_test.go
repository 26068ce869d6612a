package beacon_test

import (
	"math/rand"
	"testing"

	"relmac/internal/baseline/dcf"
	"relmac/internal/beacon"
	"relmac/internal/core"
	"relmac/internal/geom"
	"relmac/internal/mac"
	"relmac/internal/metrics"
	"relmac/internal/mobility"
	"relmac/internal/sim"
	"relmac/internal/topo"
	"relmac/internal/traffic"
)

func wrapAll(eng *sim.Engine, inner func(int, *sim.Env) sim.MAC, period int) []*beacon.Station {
	stations := make([]*beacon.Station, eng.Topo().N())
	eng.AttachMACs(func(node int, env *sim.Env) sim.MAC {
		st := beacon.Wrap(inner(node, env), node, period)
		stations[node] = st
		return st
	})
	return stations
}

func TestNeighborTableBasics(t *testing.T) {
	tb := beacon.NewNeighborTable()
	if tb.Len() != 0 || tb.Lookup(3) != nil {
		t.Error("fresh table must be empty")
	}
	tb.Observe(3, geom.Pt(0.1, 0.2), 100)
	tb.Observe(5, geom.Pt(0.3, 0.4), 120)
	tb.Observe(3, geom.Pt(0.15, 0.2), 150) // refresh
	e := tb.Lookup(3)
	if e == nil || e.Pos != geom.Pt(0.15, 0.2) || e.LastHeard != 150 {
		t.Errorf("entry = %+v", e)
	}
	got := tb.Neighbors(160, 0)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("neighbors = %v", got)
	}
	// Age cut: only node 3 heard within the last 20 slots.
	got = tb.Neighbors(160, 20)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("aged neighbors = %v", got)
	}
	if n := tb.Expire(160, 20); n != 1 || tb.Len() != 1 {
		t.Errorf("expire removed %d, len %d", n, tb.Len())
	}
}

func TestDiscoveryConvergesToTrueNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tp := topo.Uniform(30, 0.25, rng)
	eng := sim.New(sim.Config{Topo: tp, Seed: 9})
	const period = 200
	stations := wrapAll(eng, dcf.NewPlain(mac.DefaultConfig()), period)
	eng.Run(2*period+10, nil) // two beacon rounds, idle otherwise
	for i, st := range stations {
		want := tp.Neighbors(i)
		got := st.Table().Neighbors(eng.Now(), 0)
		if len(got) != len(want) {
			t.Fatalf("station %d discovered %v, true %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("station %d discovered %v, true %v", i, got, want)
			}
		}
		// Advertised positions are exact in the static case.
		for _, id := range got {
			if st.Table().Lookup(id).Pos != tp.Pos(id) {
				t.Fatalf("station %d has wrong position for %d", i, id)
			}
		}
	}
}

func TestBeaconsDoNotBreakProtocolTraffic(t *testing.T) {
	// BMMM keeps its delivery behaviour with beaconing layered on: run
	// the default workload with and without beacons and require a similar
	// delivery rate (beacons are rare 1-slot background frames).
	run := func(withBeacons bool) float64 {
		rng := rand.New(rand.NewSource(7))
		tp := topo.Uniform(60, 0.2, rng)
		col := metrics.NewCollector()
		eng := sim.New(sim.Config{Topo: tp, Sink: col, Seed: 11})
		inner := core.NewBMMM(mac.DefaultConfig())
		if withBeacons {
			wrapAll(eng, inner, 400)
		} else {
			eng.AttachMACs(inner)
		}
		gen := traffic.NewGenerator(tp)
		eng.Run(4000, gen)
		return col.Summarize(0.9, metrics.GroupFilter(4000)).SuccessRate
	}
	plain := run(false)
	with := run(true)
	if plain-with > 0.1 {
		t.Errorf("beacons cost too much delivery: %.3f vs %.3f", plain, with)
	}
	if plain == 0 {
		t.Fatal("baseline run produced nothing")
	}
}

func TestBeaconStalenessTracksMobility(t *testing.T) {
	// Under movement, discovered positions lag the true ones by at most
	// roughly (beacon period × speed), never more than a couple periods.
	rng := rand.New(rand.NewSource(5))
	const speed = 0.0005
	const period = 100
	model := mobility.NewWaypoint(20, speed, speed, 0, rng)
	d := &mobility.Driver{Model: model, Radius: 0.3, BeaconEvery: 25}
	tp := topo.FromPoints(model.Positions(), 0.3)
	eng := sim.New(sim.Config{Topo: tp, Seed: 3, SlotHook: d.Hook()})
	stations := wrapAll(eng, dcf.NewPlain(mac.DefaultConfig()), period)
	eng.Run(1500, nil)

	checked := 0
	maxLag := 3.0 * period * speed // generous: up to ~3 missed beacons
	for i, st := range stations {
		for _, id := range st.Table().Neighbors(eng.Now(), 3*period) {
			truePos := eng.Topo().Pos(id)
			believed := st.Table().Lookup(id).Pos
			if believed.Dist(truePos) > maxLag+1e-9 {
				t.Fatalf("station %d: neighbor %d believed %v, true %v (lag %.4f > %.4f)",
					i, id, believed, truePos, believed.Dist(truePos), maxLag)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no discovered neighbors to check")
	}
}

func TestWrapDegeneratePeriod(t *testing.T) {
	inner := dcf.NewPlain(mac.DefaultConfig())
	tp := topo.FromPoints([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.6, 0.5)}, 0.2)
	eng := sim.New(sim.Config{Topo: tp})
	eng.AttachMACs(func(n int, e *sim.Env) sim.MAC {
		return beacon.Wrap(inner(n, e), n, 0) // clamped to 1
	})
	eng.Run(10, nil) // must not panic (double-transmit guard etc.)
}
