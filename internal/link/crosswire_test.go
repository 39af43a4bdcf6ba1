package link

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/units"
)

// xfix is a cross-shard wire test fixture: sender and receiver shards
// joined by a data channel and a credit back-channel, with the split gate
// installed.
type xfix struct {
	coord *sim.Coordinator
	src   *sim.Engine
	dst   *capture
	wire  *Wire
	sgate *CrossSendGate
	rgate *CrossRecvGate
}

func newXFix(t *testing.T, shards int, prop, returnDelay units.Duration, window units.ByteSize) *xfix {
	t.Helper()
	coord, err := sim.NewCoordinator(shards, prop)
	if err != nil {
		t.Fatal(err)
	}
	recvShard := shards - 1 // self-loop at shards=1
	data, err := coord.Channel(0, recvShard, prop)
	if err != nil {
		t.Fatal(err)
	}
	credit, err := coord.Channel(recvShard, 0, prop)
	if err != nil {
		t.Fatal(err)
	}
	f := &xfix{coord: coord, src: coord.Shard(0).Eng, dst: &capture{}}
	f.sgate = NewCrossSendGate(func(ib.VL) units.ByteSize { return window })
	f.rgate = NewCrossRecvGate(coord.Shard(recvShard).Eng, credit, f.sgate, returnDelay)
	f.wire = NewCrossWire(f.src, "x", 56*units.Gbps, prop, data, f.dst, f.sgate)
	return f
}

// TestCrossWireDeliveryTiming: a cross-shard delivery lands with exactly the
// timestamps a local Wire would produce (mirrors TestWireDeliveryTiming).
func TestCrossWireDeliveryTiming(t *testing.T) {
	for _, shards := range []int{1, 2} {
		f := newXFix(t, shards, 3*units.Nanosecond, 16*units.Nanosecond, 1<<20)
		f.wire.Send(dataPkt(64))
		f.coord.RunUntil(units.Time(0).Add(1 * units.Microsecond))
		if len(f.dst.pkts) != 1 {
			t.Fatalf("shards=%d: packet not delivered", shards)
		}
		if got := f.dst.starts[0]; got != units.Time(0).Add(3*units.Nanosecond) {
			t.Errorf("shards=%d: arriveStart = %v, want 3ns", shards, got)
		}
		wantEnd := 3*units.Nanosecond + units.Serialization(116, 56*units.Gbps)
		if got := f.dst.ends[0]; got != units.Time(0).Add(wantEnd) {
			t.Errorf("shards=%d: arriveEnd = %v, want %v", shards, got, wantEnd)
		}
	}
}

// TestCrossGateCreditRoundTrip: reservations drain the sender window;
// OnDepart at the receiver refills it after the FC-update delay, identically
// for the self-loop and the two-shard grouping.
func TestCrossGateCreditRoundTrip(t *testing.T) {
	const window = 300
	for _, shards := range []int{1, 2} {
		f := newXFix(t, shards, 5*units.Nanosecond, 20*units.Nanosecond, window)
		if !f.sgate.TryReserve(0, 200) {
			t.Fatalf("shards=%d: fresh window refused 200B", shards)
		}
		if f.sgate.TryReserve(0, 200) {
			t.Fatalf("shards=%d: overdrawn window granted 200B", shards)
		}
		if got := f.sgate.Available(0); got != window-200 {
			t.Fatalf("shards=%d: avail = %d, want %d", shards, got, window-200)
		}
		granted := false
		f.sgate.ReserveForWaiter(0, 200, waiterFunc(func() { granted = true }))
		// Simulate the packet's life on the receiving shard: arrival, then a
		// departure that triggers the credit return.
		recv := f.coord.Shard(shards - 1).Eng
		recv.At(units.Time(0).Add(7*units.Nanosecond), "arrive", func() { f.rgate.OnArrive(0, 200) })
		recv.At(units.Time(0).Add(10*units.Nanosecond), "depart", func() { f.rgate.OnDepart(0, 200) })
		f.coord.RunUntil(units.Time(0).Add(29 * units.Nanosecond)) // credit due at 10+20 = 30ns
		if granted {
			t.Fatalf("shards=%d: waiter granted before the credit returned", shards)
		}
		f.coord.RunUntil(units.Time(0).Add(1 * units.Microsecond))
		if !granted {
			t.Fatalf("shards=%d: waiter never granted", shards)
		}
		if got := f.sgate.Available(0); got != window-200 {
			t.Errorf("shards=%d: avail after round trip = %d, want %d", shards, got, window-200)
		}
	}
}

// TestCrossGateConservationPanic: a duplicate credit return trips the
// window-conservation check.
func TestCrossGateConservationPanic(t *testing.T) {
	f := newXFix(t, 1, 2*units.Nanosecond, 8*units.Nanosecond, 100)
	f.rgate.OnArrive(0, 50) // resident without a reservation
	f.rgate.OnDepart(0, 50) // returns 50B the sender never spent
	defer func() {
		if recover() == nil {
			t.Error("credit overflow did not panic")
		}
	}()
	f.coord.RunUntil(units.Time(0).Add(1 * units.Microsecond))
}

// TestCrossGateOnRelease: hooks fire when mailbox credits land, not before.
func TestCrossGateOnRelease(t *testing.T) {
	f := newXFix(t, 2, 4*units.Nanosecond, 12*units.Nanosecond, 1000)
	fired := 0
	f.sgate.OnRelease(func() { fired++ })
	if !f.sgate.TryReserve(0, 400) {
		t.Fatal("reserve refused")
	}
	recv := f.coord.Shard(1).Eng
	recv.At(units.Time(0).Add(6*units.Nanosecond), "arrive", func() { f.rgate.OnArrive(0, 400) })
	recv.At(units.Time(0).Add(9*units.Nanosecond), "depart", func() { f.rgate.OnDepart(0, 400) })
	f.coord.RunUntil(units.Time(0).Add(1 * units.Microsecond))
	if fired != 1 {
		t.Errorf("onRelease fired %d times, want 1", fired)
	}
}
