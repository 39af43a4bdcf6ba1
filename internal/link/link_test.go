package link

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/units"
)

type capture struct {
	pkts   []*ib.Packet
	starts []units.Time
	ends   []units.Time
}

func (c *capture) DeliverArrival(p *ib.Packet, s, e units.Time) {
	c.pkts = append(c.pkts, p)
	c.starts = append(c.starts, s)
	c.ends = append(c.ends, e)
}

func dataPkt(payload units.ByteSize) *ib.Packet {
	return &ib.Packet{Kind: ib.KindData, Payload: payload}
}

func TestWireDeliveryTiming(t *testing.T) {
	eng := sim.New()
	dst := &capture{}
	w := NewWire(eng, "t", 56*units.Gbps, 3*units.Nanosecond, dst, nil)
	w.Send(dataPkt(64)) // 116 B wire -> 16.571 ns
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatal("packet not delivered")
	}
	if got := dst.starts[0]; got != units.Time(0).Add(3*units.Nanosecond) {
		t.Errorf("arriveStart = %v, want 3ns", got)
	}
	wantEnd := 3*units.Nanosecond + units.Serialization(116, 56*units.Gbps)
	if got := dst.ends[0]; got != units.Time(0).Add(wantEnd) {
		t.Errorf("arriveEnd = %v, want %v", got, wantEnd)
	}
}

func TestWireOverlapPanics(t *testing.T) {
	eng := sim.New()
	w := NewWire(eng, "t", 56*units.Gbps, 0, &capture{}, nil)
	w.Send(dataPkt(4096))
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping send should panic")
		}
	}()
	w.Send(dataPkt(64))
}

func TestWireBackToBack(t *testing.T) {
	eng := sim.New()
	dst := &capture{}
	w := NewWire(eng, "t", 56*units.Gbps, 0, dst, nil)
	w.Send(dataPkt(4096))
	eng.At(w.FreeAt(), "next", func() { w.Send(dataPkt(4096)) })
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	ser := units.Serialization(4148, 56*units.Gbps)
	if dst.ends[1].Sub(dst.ends[0]) != ser {
		t.Errorf("back-to-back spacing = %v, want %v", dst.ends[1].Sub(dst.ends[0]), ser)
	}
}

func TestUnlimitedGate(t *testing.T) {
	var g Unlimited
	if !g.TryReserve(0, 1<<40) {
		t.Fatal("unlimited gate refused")
	}
	ran := false
	g.ReserveForWaiter(0, 1<<40, waiterFunc(func() { ran = true }))
	if !ran {
		t.Fatal("unlimited gate did not grant the waiter immediately")
	}
}

func newGate(eng *sim.Engine, window units.ByteSize) *BufferGate {
	return NewBufferGate(eng, 10*units.Nanosecond, func(ib.VL) units.ByteSize { return window })
}

// TestGateFits: Fits answers what TryReserve would without taking credit,
// on every gate a switch egress arbitrates over. On a BufferGate it still
// feeds the offered-rate estimator as TryReserve does: a denial marks the
// sender credit-limited (minAvail 0), a fit lowers the low-water mark to
// what the reservation would leave.
func TestGateFits(t *testing.T) {
	var u Unlimited
	if !u.Fits(0, 1<<40) {
		t.Error("unlimited gate refused a fit")
	}

	g := newGate(sim.New(), 1000)
	if !g.Fits(0, 1000) || g.Available(0) != 1000 {
		t.Fatalf("BufferGate fit of the whole window: avail %d, want 1000 untouched", g.Available(0))
	}
	if g.vls[0].minAvail != 0 {
		t.Errorf("minAvail = %d after a fit that would empty the window, want 0", g.vls[0].minAvail)
	}
	g = newGate(sim.New(), 1000)
	if !g.TryReserve(0, 300) || !g.Fits(0, 500) {
		t.Fatal("BufferGate refused a fit within the window")
	}
	if g.Available(0) != 700 {
		t.Errorf("avail = %d after a fit, want 700 (fit must take no credit)", g.Available(0))
	}
	if g.vls[0].minAvail != 200 {
		t.Errorf("minAvail = %d after fitting 500 B into 700 B, want 200", g.vls[0].minAvail)
	}
	if g.Fits(0, 701) {
		t.Fatal("BufferGate fit more than its available credit")
	}
	if g.vls[0].minAvail != 0 {
		t.Errorf("minAvail = %d after a denied fit, want 0", g.vls[0].minAvail)
	}
	if g.Available(0) != 700 {
		t.Errorf("avail = %d after a denied fit, want 700", g.Available(0))
	}
	g.ReserveForWaiter(0, 800, waiterFunc(func() {}))
	if g.Fits(0, 1) {
		t.Error("BufferGate fit ahead of a queued waiter")
	}

	x := NewCrossSendGate(func(ib.VL) units.ByteSize { return 100 })
	if !x.Fits(1, 100) || x.Available(1) != 100 {
		t.Fatalf("CrossSendGate fit of the whole window: avail %d, want 100 untouched", x.Available(1))
	}
	if !x.TryReserve(1, 60) || x.Fits(1, 41) || !x.Fits(1, 40) {
		t.Fatal("CrossSendGate fit disagrees with its remaining 40 B of credit")
	}
	x.ReserveForWaiter(1, 50, waiterFunc(func() {}))
	if x.Fits(1, 1) {
		t.Error("CrossSendGate fit ahead of a queued waiter")
	}
	if x.Available(1) != 40 {
		t.Errorf("CrossSendGate avail = %d, want 40 (fits take no credit)", x.Available(1))
	}
}

func TestGateReserveAndRelease(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	if !g.TryReserve(0, 600) {
		t.Fatal("reserve within window failed")
	}
	if g.TryReserve(0, 600) {
		t.Fatal("over-reserve succeeded")
	}
	woke := false
	g.ReserveForWaiter(0, 600, waiterFunc(func() { woke = true }))
	// Packet arrives and departs; headroom opens because the flow is not
	// oversubscribed (no rate estimates yet -> target = window).
	g.OnArrive(0, 600)
	g.OnDepart(0, 600)
	eng.Run()
	if !woke {
		t.Fatal("waiter not woken after release")
	}
}

func TestGateWaitersFIFO(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	if !g.TryReserve(0, 1000) {
		t.Fatal("reserve failed")
	}
	var order []int
	g.ReserveForWaiter(0, 400, waiterFunc(func() { order = append(order, 1) }))
	g.ReserveForWaiter(0, 400, waiterFunc(func() { order = append(order, 2) }))
	g.OnArrive(0, 1000)
	g.OnDepart(0, 1000)
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("wake order = %v", order)
	}
}

func TestGateTryReserveRespectsWaiters(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	g.TryReserve(0, 900)
	g.ReserveForWaiter(0, 500, waiterFunc(func() {}))
	// 100 bytes are free but a waiter queues ahead: FIFO order demands
	// TryReserve fail even for a small request.
	if g.TryReserve(0, 50) {
		t.Fatal("TryReserve jumped the waiter queue")
	}
}

func TestGatePerVLIsolation(t *testing.T) {
	eng := sim.New()
	g := NewBufferGate(eng, 0, func(vl ib.VL) units.ByteSize {
		if vl == 1 {
			return 2000
		}
		return 1000
	})
	if g.Window(0) != 1000 || g.Window(1) != 2000 {
		t.Fatal("per-VL windows wrong")
	}
	if !g.TryReserve(0, 1000) {
		t.Fatal("vl0 reserve failed")
	}
	if !g.TryReserve(1, 2000) {
		t.Fatal("vl1 reserve failed: VLs must have independent credits")
	}
}

func TestGateOnReleaseHook(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	hooks := 0
	g.OnRelease(func() { hooks++ })
	g.TryReserve(0, 500)
	g.OnArrive(0, 500)
	g.OnDepart(0, 500)
	eng.Run()
	if hooks != 1 {
		t.Fatalf("release hooks fired %d times, want 1", hooks)
	}
}

func TestGateArrivalWithoutReservePanics(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("arrival without reservation should panic")
		}
	}()
	g.OnArrive(0, 100)
}

// driveFlow runs a synthetic sender (period senderPeriod per packet) into a
// gate whose buffer drains one packet every drainPeriod, and returns the
// mean standing occupancy over the tail of the run.
func driveFlow(t *testing.T, window units.ByteSize, pkt units.ByteSize, senderPeriod, drainPeriod units.Duration, frozen bool) float64 {
	t.Helper()
	eng := sim.New()
	g := NewBufferGate(eng, 10*units.Nanosecond, func(ib.VL) units.ByteSize { return window })
	g.SetFrozen(frozen)

	var inBuf units.ByteSize
	var drainArmed bool
	var samples []float64
	var sampleFrom units.Time = units.Time(3 * units.Millisecond)

	var drain func()
	drain = func() {
		if inBuf < pkt {
			drainArmed = false
			return
		}
		eng.After(drainPeriod, "drain", func() {
			inBuf -= pkt
			g.OnDepart(0, pkt)
			if eng.Now() > sampleFrom {
				samples = append(samples, float64(g.Occupancy(0)))
			}
			drain()
		})
	}

	var send func()
	send = func() {
		g.ReserveForWaiter(0, pkt, waiterFunc(func() {
			// Model sender pacing: next injection no sooner than period.
			eng.After(senderPeriod, "inject", func() {
				g.OnArrive(0, pkt)
				inBuf += pkt
				if !drainArmed {
					drainArmed = true
					drain()
				}
				send()
			})
		}))
	}
	send()
	eng.RunUntil(units.Time(6 * units.Millisecond))
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

func TestFrozenOccupancyLaw(t *testing.T) {
	// Sender offers one 4148 B packet per 628 ns (~52.9 Gb/s wire); drain
	// is one packet per 1185 ns (two-way share of 56 Gb/s). Expected
	// standing occupancy: W * (1 - 628/1185) = 0.47 * 32 KB ~= 15.4 KB.
	w := 32 * units.KB
	occ := driveFlow(t, w, 4148, units.Nanoseconds(628), units.Nanoseconds(1185), true)
	want := float64(w) * (1 - 628.0/1185.0)
	if math.Abs(occ-want)/want > 0.20 {
		t.Errorf("frozen occupancy = %.0f B, want ~%.0f B (+-20%%)", occ, want)
	}
}

func TestFrozenOccupancyFiveWayShare(t *testing.T) {
	// Five-way drain share: occupancy should freeze near W*(1-rd/ro) with
	// rd/ro = 628/2963.
	w := 32 * units.KB
	occ := driveFlow(t, w, 4148, units.Nanoseconds(628), units.Nanoseconds(2963), true)
	want := float64(w) * (1 - 628.0/2963.0)
	if math.Abs(occ-want)/want > 0.15 {
		t.Errorf("occupancy = %.0f B, want ~%.0f B", occ, want)
	}
}

func TestNaiveCreditsFillWindow(t *testing.T) {
	// Ablation: with frozen pacing off, the same flow keeps the buffer
	// nearly full — the behaviour the paper's numbers rule out.
	// The window minus ~2 packets of in-flight slack (one reserved at the
	// sender, one covering the credit-return delay) stays resident.
	w := 32 * units.KB
	occ := driveFlow(t, w, 4148, units.Nanoseconds(628), units.Nanoseconds(1185), false)
	if occ < float64(w)*0.72 {
		t.Errorf("naive occupancy = %.0f B, want >= 72%% of window %d", occ, w)
	}
}

func TestUnderloadedFlowKeepsBufferEmpty(t *testing.T) {
	// Drain faster than offer: occupancy stays around one packet.
	occ := driveFlow(t, 32*units.KB, 4148, units.Nanoseconds(628), units.Nanoseconds(500), true)
	if occ > 3*4148 {
		t.Errorf("underloaded occupancy = %.0f B, want < 3 packets", occ)
	}
}

func TestGateConservationInvariant(t *testing.T) {
	// Run an oversubscribed flow and verify avail+reserved+resident+escrow
	// never exceeds the window (the panic inside the gate enforces it; this
	// test just exercises the path heavily).
	occ := driveFlow(t, 8*units.KB, 512, units.Nanoseconds(50), units.Nanoseconds(80), true)
	if occ <= 0 {
		t.Fatal("no occupancy recorded")
	}
}

// Regression: the offered-rate peak must re-window after a sender stops.
// A fast (oversubscribed) sender runs for 2 ms and stops; lighter traffic
// then arrives on the same VL at well under the drain rate. With the old
// monotone-max peak the gate kept believing ro was the historical burst
// rate, held target() below the window forever, and escrowed credits the
// new flow was entitled to. After the fix the peak re-anchors within two
// estimation windows and the gate goes invisible again.
func TestStoppedSenderPeakReWindows(t *testing.T) {
	eng := sim.New()
	w := 32 * units.KB
	g := NewBufferGate(eng, 10*units.Nanosecond, func(ib.VL) units.ByteSize { return w })
	const pkt = 4148
	phase2 := units.Time(2 * units.Millisecond)
	stop := units.Time(6 * units.Millisecond)

	var inBuf units.ByteSize
	var drainArmed bool
	var drain func()
	drain = func() {
		if inBuf < pkt {
			drainArmed = false
			return
		}
		eng.After(units.Nanoseconds(1185), "drain", func() {
			inBuf -= pkt
			g.OnDepart(0, pkt)
			drain()
		})
	}
	period := func() units.Duration {
		if eng.Now() >= phase2 {
			return units.Nanoseconds(4000) // ~8.3 Gb/s: well under the drain rate
		}
		return units.Nanoseconds(628) // ~52.9 Gb/s: oversubscribed
	}
	var send func()
	send = func() {
		if eng.Now() >= stop {
			return
		}
		g.ReserveForWaiter(0, pkt, waiterFunc(func() {
			eng.After(period(), "inject", func() {
				g.OnArrive(0, pkt)
				inBuf += pkt
				if !drainArmed {
					drainArmed = true
					drain()
				}
				send()
			})
		}))
	}
	send()
	eng.RunUntil(stop)

	s := &g.vls[0]
	slowRate := float64(pkt) / float64(units.Nanoseconds(4000))
	if s.arrPeak > 2*slowRate {
		t.Errorf("arrival peak %.6f B/ps still near the stopped sender's rate; want <= %.6f (2x the live rate)",
			s.arrPeak, 2*slowRate)
	}
	if got := g.target(s); got != s.window {
		t.Errorf("frozen-occupancy target = %d B with a non-oversubscribed flow, want the full window %d B", got, s.window)
	}
	if s.escrow != 0 {
		t.Errorf("gate still escrows %d B of credits after the regime change", s.escrow)
	}
}

// testWaiter implements Waiter by counting grants.
type testWaiter struct{ grants []int }

func (w *testWaiter) CreditGranted() { w.grants = append(w.grants, len(w.grants)+1) }

func TestUnlimitedGateWaiter(t *testing.T) {
	var g Unlimited
	w := &testWaiter{}
	g.ReserveForWaiter(0, 1<<40, w)
	if len(w.grants) != 1 {
		t.Fatal("unlimited gate did not notify the waiter immediately")
	}
}

// Queued waiters share one FIFO per VL, in strict arrival order.
func TestGateWaitersShareFIFO(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	if !g.TryReserve(0, 1000) {
		t.Fatal("reserve failed")
	}
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		g.ReserveForWaiter(0, 300, waiterFunc(func() { order = append(order, name) }))
	}
	g.OnArrive(0, 1000)
	g.OnDepart(0, 1000)
	eng.Run()
	if got := fmt.Sprint(order); got != "[w1 w2 w3]" {
		t.Fatalf("grant order = %s, want [w1 w2 w3]", got)
	}
}

// waiterFunc adapts a func to Waiter for tests.
type waiterFunc func()

func (f waiterFunc) CreditGranted() { f() }

// The waiter path must grant immediately when credit is on hand.
func TestGateWaiterImmediateGrant(t *testing.T) {
	eng := sim.New()
	g := newGate(eng, 1000)
	w := &testWaiter{}
	g.ReserveForWaiter(0, 400, w)
	if len(w.grants) != 1 {
		t.Fatal("waiter not granted immediately with credit available")
	}
	if g.Available(0) != 600 {
		t.Fatalf("available = %d after immediate waiter grant, want 600", g.Available(0))
	}
}
