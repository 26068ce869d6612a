package sim

import (
	"fmt"
	"testing"

	"relmac/internal/capture"
	"relmac/internal/frames"
	"relmac/internal/geom"
	"relmac/internal/topo"
)

// scriptMAC transmits pre-programmed frames at fixed slots and records
// everything it receives. It is the test double for channel-level tests.
type scriptMAC struct {
	sends     map[Slot]*frames.Frame
	received  []string // "slot:TYPE src→dst"
	busySlots map[Slot]bool
}

func newScriptMAC() *scriptMAC {
	return &scriptMAC{sends: map[Slot]*frames.Frame{}, busySlots: map[Slot]bool{}}
}

func (m *scriptMAC) at(t Slot, f *frames.Frame) *scriptMAC {
	m.sends[t] = f
	return m
}

func (m *scriptMAC) Tick(env *Env) *frames.Frame {
	if env.CarrierBusy() {
		m.busySlots[env.Now()] = true
	}
	return m.sends[env.Now()]
}

func (m *scriptMAC) Deliver(env *Env, f *frames.Frame) {
	m.received = append(m.received, fmt.Sprintf("%d:%s %s→%s", env.Now(), f.Type, f.Src, f.Dst))
}

func (m *scriptMAC) Submit(env *Env, req *Request) {}

// lineTopo builds stations on a horizontal line with the given spacing.
func lineTopo(n int, spacing, radius float64) *topo.Topology {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*spacing, 0)
	}
	return topo.FromPoints(pts, radius)
}

func engineWithScripts(t *testing.T, tp *topo.Topology, cfg Config) (*Engine, []*scriptMAC) {
	t.Helper()
	cfg.Topo = tp
	e := New(cfg)
	macs := make([]*scriptMAC, tp.N())
	for i := range macs {
		macs[i] = newScriptMAC()
		e.SetMAC(i, macs[i])
	}
	return e, macs
}

func ctl(ft frames.Type, src, dst int) *frames.Frame {
	return &frames.Frame{Type: ft, Src: frames.Addr(src), Dst: frames.Addr(dst)}
}

func TestSingleFrameDelivery(t *testing.T) {
	tp := lineTopo(3, 0.1, 0.15) // 0-1 and 1-2 in range; 0-2 not
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.RTS, 0, 1))
	e.Run(3, nil)
	if len(macs[1].received) != 1 {
		t.Fatalf("node 1 received %v, want one RTS", macs[1].received)
	}
	if macs[1].received[0] != "0:RTS 0→1" {
		t.Errorf("got %q", macs[1].received[0])
	}
	if len(macs[2].received) != 0 {
		t.Errorf("node 2 out of range but received %v", macs[2].received)
	}
	if len(macs[0].received) != 0 {
		t.Errorf("sender must not receive its own frame: %v", macs[0].received)
	}
}

func TestDataFrameTakesFiveSlots(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	f := ctl(frames.Data, 0, 1)
	macs[0].at(0, f)
	e.Run(4, nil)
	if len(macs[1].received) != 0 {
		t.Fatal("data frame delivered before its 5-slot airtime elapsed")
	}
	e.Run(1, nil)
	if len(macs[1].received) != 1 || macs[1].received[0] != "4:DATA 0→1" {
		t.Fatalf("got %v, want delivery at end of slot 4", macs[1].received)
	}
}

func TestCollisionAtCommonReceiver(t *testing.T) {
	// 0 and 2 both in range of 1, not of each other (hidden terminals).
	tp := lineTopo(3, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.RTS, 0, 1))
	macs[2].at(0, ctl(frames.RTS, 2, 1))
	e.Run(2, nil)
	if len(macs[1].received) != 0 {
		t.Errorf("collided frames must not be delivered: %v", macs[1].received)
	}
}

func TestCollisionSparesExclusiveReceivers(t *testing.T) {
	// Line 0-1-2-3: 1 and 2 transmit simultaneously; 0 hears only 1,
	// 3 hears only 2, so both outer receivers decode cleanly.
	tp := lineTopo(4, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[1].at(0, ctl(frames.CTS, 1, 0))
	macs[2].at(0, ctl(frames.CTS, 2, 3))
	e.Run(2, nil)
	if len(macs[0].received) != 1 {
		t.Errorf("node 0 should decode node 1's frame: %v", macs[0].received)
	}
	if len(macs[3].received) != 1 {
		t.Errorf("node 3 should decode node 2's frame: %v", macs[3].received)
	}
	// 1 and 2 are in each other's range and both transmitting: half
	// duplex, neither hears the other.
	if len(macs[1].received)+len(macs[2].received) != 0 {
		t.Error("transmitting stations must not receive")
	}
}

func TestPartialOverlapCorruptsLongFrame(t *testing.T) {
	// Node 0 starts a 5-slot DATA at slot 0; node 2 (hidden from 0) sends
	// a 1-slot control at slot 3. The receiver in the middle loses the
	// DATA frame.
	tp := lineTopo(3, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.Data, 0, 1))
	macs[2].at(3, ctl(frames.CTS, 2, 1))
	e.Run(6, nil)
	for _, r := range macs[1].received {
		if r == "4:DATA 0→1" {
			t.Fatal("DATA must be corrupted by the overlapping control frame")
		}
	}
}

func TestHalfDuplexReceiverMissesFrame(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.Data, 0, 1)) // slots 0..4
	macs[1].at(2, ctl(frames.CTS, 1, 0))  // transmits during slot 2
	e.Run(6, nil)
	for _, r := range macs[1].received {
		if r[0] == '4' {
			t.Fatal("node 1 transmitted during the DATA frame; must lose it")
		}
	}
	// Node 0 is transmitting at slot 2 as well (DATA until 4): it cannot
	// hear node 1's CTS either.
	if len(macs[0].received) != 0 {
		t.Errorf("node 0 busy transmitting must not hear CTS: %v", macs[0].received)
	}
}

func TestCarrierSenseSeesEarlierNotSameSlot(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.Data, 0, 1)) // airtime 0..4
	e.Run(6, nil)
	if macs[1].busySlots[0] {
		t.Error("slot 0: transmission starting this slot must not be sensed")
	}
	for s := Slot(1); s <= 4; s++ {
		if !macs[1].busySlots[s] {
			t.Errorf("slot %d: ongoing transmission should be sensed busy", s)
		}
	}
	if macs[1].busySlots[5] {
		t.Error("slot 5: medium should be idle again")
	}
}

func TestCaptureNearestWins(t *testing.T) {
	// Receiver at origin; near transmitter at 0.05, far at 0.15 — ratio 3
	// beats the 1.5 SIR threshold, so the near frame survives.
	tp := topo.FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(0.05, 0), geom.Pt(0, 0.15),
	}, 0.2)
	e, macs := engineWithScripts(t, tp, Config{Capture: capture.SIR{Ratio: 1.5}})
	macs[1].at(0, ctl(frames.CTS, 1, 0))
	macs[2].at(0, ctl(frames.CTS, 2, 0))
	e.Run(2, nil)
	if len(macs[0].received) != 1 || macs[0].received[0] != "0:CTS 1→0" {
		t.Fatalf("capture should deliver the near CTS, got %v", macs[0].received)
	}
}

func TestNoCaptureWithoutModel(t *testing.T) {
	tp := topo.FromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(0.05, 0), geom.Pt(0, 0.15),
	}, 0.2)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[1].at(0, ctl(frames.CTS, 1, 0))
	macs[2].at(0, ctl(frames.CTS, 2, 0))
	e.Run(2, nil)
	if len(macs[0].received) != 0 {
		t.Fatalf("default model must not capture: %v", macs[0].received)
	}
}

func TestErrRateErasesFrames(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{ErrRate: 1})
	macs[0].at(0, ctl(frames.RTS, 0, 1))
	e.Run(2, nil)
	if len(macs[1].received) != 0 {
		t.Error("ErrRate=1 must erase every frame")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	tp := lineTopo(2, 0.1, 0.15)
	e, macs := engineWithScripts(t, tp, Config{})
	macs[0].at(0, ctl(frames.Data, 0, 1))
	macs[0].at(2, ctl(frames.RTS, 0, 1)) // illegal: still sending DATA
	defer func() {
		if recover() == nil {
			t.Error("starting a frame while transmitting must panic")
		}
	}()
	e.Run(4, nil)
}

func TestObserverDataRx(t *testing.T) {
	tp := lineTopo(3, 0.1, 0.15)
	var got []string
	sink := &funcSink{kinds: KindsOf(EvDataRx, EvRxOK), on: func(ev Event) {
		got = append(got, fmt.Sprintf("%s %d@%d:%d", ev.Kind, ev.Frame.MsgID, ev.Station, ev.Slot))
	}}
	e, macs := engineWithScripts(t, tp, Config{Sink: sink})
	f := ctl(frames.Data, 1, -1)
	f.MsgID = 42
	macs[1].at(0, f)
	e.Run(5, nil)
	// Each receiver sees rx-ok before data-rx, receivers in range order.
	want := []string{"rx-ok 42@0:4", "data-rx 42@0:4", "rx-ok 42@2:4", "data-rx 42@2:4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []string {
		tp := topo.FromPoints([]geom.Point{
			geom.Pt(0, 0), geom.Pt(0.05, 0), geom.Pt(0, 0.15),
		}, 0.2)
		e, macs := engineWithScripts(t, tp, Config{Capture: capture.ZorziRao{}, Seed: 7})
		macs[1].at(0, ctl(frames.CTS, 1, 0)).at(4, ctl(frames.CTS, 1, 0))
		macs[2].at(0, ctl(frames.CTS, 2, 0)).at(4, ctl(frames.CTS, 2, 0))
		e.Run(8, nil)
		return macs[0].received
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed produced different outcomes: %v vs %v", a, b)
	}
}

func TestRequestExpired(t *testing.T) {
	r := &Request{Arrival: 10, Deadline: 110}
	if r.Expired(110) {
		t.Error("deadline slot itself is not expired")
	}
	if !r.Expired(111) {
		t.Error("one past the deadline is expired")
	}
}

func TestKindString(t *testing.T) {
	if Unicast.String() != "unicast" || Multicast.String() != "multicast" ||
		Broadcast.String() != "broadcast" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestMissingTopoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without Topo must panic")
		}
	}()
	New(Config{})
}
