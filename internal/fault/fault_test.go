package fault

import (
	"math"
	"testing"

	"relmac/internal/frames"
	"relmac/internal/obs"
	"relmac/internal/sim"
)

func TestFaultConfigActivation(t *testing.T) {
	var zero Config
	if zero.ChannelActive() || zero.Active() {
		t.Error("zero config must be inactive")
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero config must validate: %v", err)
	}
	cases := []struct {
		name    string
		cfg     Config
		channel bool
	}{
		{"per", Config{PER: 0.1}, true},
		{"ge", Config{GE: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, PERBad: 1}}, true},
		{"crash", Config{Crash: Crash{MTTF: 1000, MTTR: 100}}, true},
		{"locnoise", Config{LocNoise: 0.05}, false},
	}
	for _, c := range cases {
		if c.cfg.ChannelActive() != c.channel {
			t.Errorf("%s: ChannelActive = %v, want %v", c.name, c.cfg.ChannelActive(), c.channel)
		}
		if !c.cfg.Active() {
			t.Errorf("%s: Active = false", c.name)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []Config{
		{PER: -0.1},
		{PER: 1.5},
		{LocNoise: -1},
		{GE: GilbertElliott{PGoodBad: 2}},
		{GE: GilbertElliott{PGoodBad: 0.1, PBadGood: -0.2}},
		{Crash: Crash{MTTF: 100}},         // missing MTTR
		{Crash: Crash{MTTF: -5, MTTR: 5}}, // negative mean
		// NaN fails every ordered comparison, so each range check must
		// be written to reject it.
		{PER: math.NaN()},
		{LocNoise: math.NaN()},
		{GE: GilbertElliott{PGoodBad: math.NaN()}},
		{GE: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.2, PERBad: math.NaN()}},
		{Crash: Crash{MTTF: math.NaN(), MTTR: 5}},
		{Crash: Crash{MTTF: 100, MTTR: math.NaN()}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation: %+v", i, cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewInjector must panic on an invalid config")
		}
	}()
	NewInjector(Config{PER: 2})
}

// TestFaultIIDDeterminism pins the core determinism contract: two
// injectors with the same seed make identical erasure decisions, and a
// different seed yields a different decision sequence.
func TestFaultIIDDeterminism(t *testing.T) {
	f := &frames.Frame{Type: frames.Data}
	mk := func(seed int64) []bool {
		inj := NewInjector(Config{PER: 0.3, Seed: seed})
		var out []bool
		for s := sim.Slot(0); s < 200; s++ {
			out = append(out, inj.Erase(f, 0, 1, s))
		}
		return out
	}
	a, b, c := mk(42), mk(42), mk(43)
	same, diff := true, false
	erased := 0
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
		if a[i] {
			erased++
		}
	}
	if !same {
		t.Error("same seed produced different erasure sequences")
	}
	if !diff {
		t.Error("different seeds produced identical erasure sequences")
	}
	// 200 draws at PER 0.3: expect ~60, demand a loose sanity window.
	if erased < 20 || erased > 120 {
		t.Errorf("erased %d/200 frames at PER 0.3", erased)
	}
	if !NewInjector(Config{PER: 1, Seed: 1}).Erase(f, 0, 1, 0) {
		t.Error("PER 1 must erase every frame")
	}
}

// TestFaultGEOrderInvariance checks that a link's Gilbert–Elliott
// trajectory does not depend on when it is queried: an injector asked
// only at slot 500 must agree with one asked every slot up to 500,
// because per-slot transition draws are stateless hashes.
func TestFaultGEOrderInvariance(t *testing.T) {
	cfg := Config{GE: GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, PERBad: 1}, Seed: 99}
	dense, sparse := NewInjector(cfg), NewInjector(cfg)
	f := &frames.Frame{Type: frames.Data}
	var denseAt []bool
	for s := sim.Slot(0); s <= 500; s++ {
		denseAt = append(denseAt, dense.Erase(f, 3, 7, s))
	}
	// PERBad=1, PERGood=0: the erase decision IS the chain state, so a
	// single late query must land on the same state.
	if got, want := sparse.Erase(f, 3, 7, 500), denseAt[500]; got != want {
		t.Errorf("query order changed the chain: sparse=%v dense=%v at slot 500", got, want)
	}
	bad := 0
	for _, b := range denseAt {
		if b {
			bad++
		}
	}
	// Stationary bad fraction is 0.2/(0.2+0.3) = 0.4 of 501 slots.
	if bad < 100 || bad > 320 {
		t.Errorf("bad-state slots = %d/501, far from stationary 0.4", bad)
	}
}

// TestFaultCrashSchedule checks the crash axis: all nodes start up,
// schedules are deterministic per seed, both states are visited over a
// long horizon, and independent nodes get independent schedules.
func TestFaultCrashSchedule(t *testing.T) {
	cfg := Config{Crash: Crash{MTTF: 200, MTTR: 50}, Seed: 7}
	a, b := NewInjector(cfg), NewInjector(cfg)
	if a.Down(0, 0) {
		t.Error("nodes must start up")
	}
	var downA, downB, downOther int
	for s := sim.Slot(0); s < 20000; s++ {
		if a.Down(1, s) {
			downA++
		}
		if b.Down(1, s) {
			downB++
		}
		if a.Down(2, s) {
			downOther++
		}
	}
	if downA != downB {
		t.Errorf("same seed, different downtime: %d vs %d", downA, downB)
	}
	if downA == 0 {
		t.Error("node 1 never crashed over 20k slots at MTTF 200")
	}
	// Stationary down fraction is 50/250 = 20%; allow a wide window.
	if frac := float64(downA) / 20000; frac < 0.05 || frac > 0.5 {
		t.Errorf("down fraction = %.3f, want near 0.2", frac)
	}
	if downOther == downA {
		t.Error("distinct nodes got identical schedules")
	}
	drops, downs := a.CrashStats()
	if drops != 0 || downs == 0 {
		t.Errorf("CrashStats = (%d, %d), want (0, >0)", drops, downs)
	}
}

func TestFaultFeedRegistry(t *testing.T) {
	inj := NewInjector(Config{PER: 1, Seed: 3})
	f := &frames.Frame{Type: frames.Data}
	inj.Erase(f, 0, 1, 0)
	inj.Erase(f, 0, 2, 0)
	inj.NoteCrashDrop()
	reg := obs.NewRegistry()
	inj.FeedRegistry(reg, "BMMM.fault")
	for name, want := range map[string]int64{
		"BMMM.fault.erasures.iid":     2,
		"BMMM.fault.erasures.burst":   0,
		"BMMM.fault.crash.rx_dropped": 1,
		"BMMM.fault.crash.downs":      0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if iid, ge := inj.Erasures(); iid != 2 || ge != 0 {
		t.Errorf("Erasures = (%d, %d), want (2, 0)", iid, ge)
	}
}

func TestFaultParseGE(t *testing.T) {
	g, err := ParseGE("0.01:0.1:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if g.PGoodBad != 0.01 || g.PBadGood != 0.1 || g.PERBad != 0.8 || g.PERGood != 0 {
		t.Errorf("ParseGE = %+v", g)
	}
	g, err = ParseGE("0.01:0.1:0.8:0.02")
	if err != nil || g.PERGood != 0.02 {
		t.Errorf("4-part ParseGE = %+v, err %v", g, err)
	}
	if g, err = ParseGE(""); err != nil || g.Enabled() {
		t.Errorf("empty ParseGE = %+v, err %v", g, err)
	}
	for _, s := range []string{"0.1", "0.1:0.2", "a:b:c", "0.1:0.2:2", "1:2:3:4:5"} {
		if _, err := ParseGE(s); err == nil {
			t.Errorf("ParseGE(%q) accepted", s)
		}
	}
}

func TestFaultParseCrash(t *testing.T) {
	c, err := ParseCrash("2000:200")
	if err != nil || c.MTTF != 2000 || c.MTTR != 200 {
		t.Errorf("ParseCrash = %+v, err %v", c, err)
	}
	if c, err = ParseCrash(""); err != nil || c.Enabled() {
		t.Errorf("empty ParseCrash = %+v, err %v", c, err)
	}
	for _, s := range []string{"2000", "a:b", "100:-5", "100:0"} {
		if _, err := ParseCrash(s); err == nil {
			t.Errorf("ParseCrash(%q) accepted", s)
		}
	}
}
