package link

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// A dropped packet still occupies the wire, then vanishes at the receiver,
// and its credit flows back to the sender as if it had arrived and left at
// once: the window is whole again one FC-update delay after the first bit
// would have landed, and the sender's release hook fires once.

// dropAll arms certain loss on a fresh fault state.
func dropAll() *Faults {
	f := NewFaults()
	f.SetDrop(1, rng.New(1))
	return f
}

func TestWireDropReturnsCredit(t *testing.T) {
	const window, prop, returnDelay = 1000, 3 * units.Nanosecond, 10 * units.Nanosecond
	eng := sim.New()
	gate := newGate(eng, window) // credit returns after returnDelay
	dst := &capture{}
	w := NewWire(eng, "t", 56*units.Gbps, prop, dst, gate)
	f := dropAll()
	w.InstallFaults(f, gate)
	released := 0
	gate.OnRelease(func() { released++ })

	pkt := dataPkt(64)
	if !gate.TryReserve(0, pkt.WireSize()) {
		t.Fatal("fresh window refused the packet")
	}
	w.Send(pkt)
	credited := units.Time(0).Add(prop + returnDelay)
	eng.RunUntil(credited - 1)
	if got := gate.Available(0); got != window-pkt.WireSize() {
		t.Fatalf("avail = %d before the FC-update delay, want %d", got, window-pkt.WireSize())
	}
	eng.Run()
	if len(dst.pkts) != 0 {
		t.Errorf("peer received %d packets, want none", len(dst.pkts))
	}
	if f.Sent != 1 || f.Drops != 1 {
		t.Errorf("Sent=%d Drops=%d, want 1 and 1", f.Sent, f.Drops)
	}
	if got := gate.Available(0); got != window {
		t.Errorf("avail = %d after the drop, want the full window %d", got, window)
	}
	if released != 1 {
		t.Errorf("release hook fired %d times, want 1", released)
	}
}

func TestCrossWireDropReturnsCredit(t *testing.T) {
	const window, prop, returnDelay = 1000, 5 * units.Nanosecond, 20 * units.Nanosecond
	for _, shards := range []int{1, 2} {
		fx := newXFix(t, shards, prop, returnDelay, window)
		f := dropAll()
		fx.wire.InstallFaults(f, fx.rgate)
		released := 0
		fx.sgate.OnRelease(func() { released++ })

		pkt := dataPkt(64)
		if !fx.sgate.TryReserve(0, pkt.WireSize()) {
			t.Fatalf("shards=%d: fresh window refused the packet", shards)
		}
		fx.wire.Send(pkt)
		credited := units.Time(0).Add(prop + returnDelay)
		fx.coord.RunUntil(credited - 1)
		if got := fx.sgate.Available(0); got != window-pkt.WireSize() {
			t.Fatalf("shards=%d: avail = %d before the FC-update delay, want %d", shards, got, window-pkt.WireSize())
		}
		fx.coord.RunUntil(units.Time(0).Add(units.Microsecond))
		if len(fx.dst.pkts) != 0 {
			t.Errorf("shards=%d: peer received %d packets, want none", shards, len(fx.dst.pkts))
		}
		if f.Sent != 1 || f.Drops != 1 {
			t.Errorf("shards=%d: Sent=%d Drops=%d, want 1 and 1", shards, f.Sent, f.Drops)
		}
		if got := fx.sgate.Available(0); got != window {
			t.Errorf("shards=%d: avail = %d after the drop, want the full window %d", shards, got, window)
		}
		if released != 1 {
			t.Errorf("shards=%d: release hook fired %d times, want 1", shards, released)
		}
	}
}
