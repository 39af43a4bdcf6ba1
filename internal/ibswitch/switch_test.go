package ibswitch_test

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// harness wires a switch with synthetic endpoints so packets can be pushed
// through specific ports without RNICs.
type harness struct {
	eng *sim.Engine
	sw  *ibswitch.Switch
	out map[int]*capture
}

type capture struct {
	pkts []*ib.Packet
	ends []units.Time
}

func (c *capture) DeliverArrival(p *ib.Packet, s, e units.Time) {
	c.pkts = append(c.pkts, p)
	c.ends = append(c.ends, e)
}

func newHarness(t *testing.T, par model.SwitchParams, ports int) *harness {
	t.Helper()
	h := &harness{eng: sim.New(), out: map[int]*capture{}}
	h.sw = ibswitch.New(h.eng, "test", par, ports, rng.New(9))
	lp := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 3 * units.Nanosecond}
	for i := 0; i < ports; i++ {
		cap := &capture{}
		h.out[i] = cap
		h.sw.AttachPeer(i, lp, cap, link.Unlimited{})
		h.sw.SetRoute(ib.NodeID(i), i)
	}
	return h
}

// inject delivers a packet to ingress port at the current engine time,
// reserving credits on the VL the switch will classify the packet into.
func (h *harness) inject(port int, pkt *ib.Packet) {
	gate := h.sw.IngressGate(port)
	if !gate.TryReserve(sl2vl(pkt.SL), pkt.WireSize()) {
		panic("test harness: no ingress credits")
	}
	now := h.eng.Now()
	h.sw.Ingress(port).DeliverArrival(pkt, now, now.Add(units.Serialization(pkt.WireSize(), 56*units.Gbps)))
}

// waiterFunc adapts a func to link.Waiter: the feeders below block on
// ingress credit the way an RNIC's send engine does.
type waiterFunc func()

func (f waiterFunc) CreditGranted() { f() }

func dataTo(dst ib.NodeID, payload units.ByteSize, sl ib.SL) *ib.Packet {
	return &ib.Packet{Kind: ib.KindData, Verb: ib.VerbWrite, Transport: ib.RC,
		SrcNode: 99, DestNode: dst, Payload: payload, SL: sl, LastInMsg: true}
}

func simParams() model.SwitchParams {
	p := model.OMNeTSim().Switch
	return p
}

func TestForwardsToRoutedPort(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.inject(0, dataTo(2, 64, 0))
	h.eng.Run()
	if len(h.out[2].pkts) != 1 {
		t.Fatalf("port 2 received %d packets", len(h.out[2].pkts))
	}
	for i, c := range h.out {
		if i != 2 && len(c.pkts) != 0 {
			t.Fatalf("port %d received stray packets", i)
		}
	}
}

func TestCutThroughLatency(t *testing.T) {
	// Delivery end = arrival start + base latency + serialization + prop.
	h := newHarness(t, simParams(), 2)
	h.inject(0, dataTo(1, 4096, 0))
	h.eng.Run()
	got := h.out[1].ends[0]
	want := units.Time(0).
		Add(203 * units.Nanosecond).
		Add(units.Serialization(4148, 56*units.Gbps)).
		Add(3 * units.Nanosecond)
	if got != want {
		t.Fatalf("delivery at %v, want %v (cut-through must not add store-and-forward)", got, want)
	}
}

func TestMissingRoutePanics(t *testing.T) {
	h := newHarness(t, simParams(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unrouted destination")
		}
	}()
	h.inject(0, dataTo(77, 64, 0))
	h.eng.Run()
}

func TestInvalidRoutePanics(t *testing.T) {
	h := newHarness(t, simParams(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range port")
		}
	}()
	h.sw.SetRoute(5, 9)
}

func TestFCFSServesOldestAcrossPorts(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.sw.SetPolicy(ibswitch.FCFS)
	// Port 1's packet arrives first, then port 0's; both to port 3. Stall
	// the egress with a packet from port 2 so both are queued when it
	// frees.
	h.inject(2, dataTo(3, 4096, 0))
	h.eng.RunFor(250 * units.Nanosecond)
	a := dataTo(3, 64, 0)
	a.MsgID = 1
	h.inject(1, a)
	h.eng.RunFor(30 * units.Nanosecond)
	b := dataTo(3, 64, 0)
	b.MsgID = 2
	h.inject(0, b)
	h.eng.Run()
	pkts := h.out[3].pkts
	if len(pkts) != 3 {
		t.Fatalf("forwarded %d packets", len(pkts))
	}
	if pkts[1].MsgID != 1 || pkts[2].MsgID != 2 {
		t.Fatalf("FCFS order wrong: got %d then %d", pkts[1].MsgID, pkts[2].MsgID)
	}
}

// TestPickAdmitsHeadsInPortOrder pins how pick builds its candidate set
// when the downstream gate has credit for only one of the ready heads:
// heads are admitted in input-port order, so input 0 takes the one
// packet of credit although FCFS would serve input 2's older packet.
// This is the port-order bias behind the multi-switch starvation
// (ROADMAP.md "Fair arbitration when an egress is short of credit"); the
// fix admits each head on its own fit, sends input 2's packet, and
// rewrites this test.
func TestPickAdmitsHeadsInPortOrder(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.sw.SetPolicy(ibswitch.FCFS)
	size := dataTo(3, 4096, 0).WireSize()
	gate := link.NewBufferGate(h.eng, simParams().CreditReturnDelay, func(ib.VL) units.ByteSize { return size })
	if !gate.TryReserve(0, size) { // the window is held: no credit yet
		t.Fatal("fresh one-packet window refused its packet")
	}
	h.sw.AttachPeer(3, model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 3 * units.Nanosecond}, h.out[3], gate)

	for _, in := range []int{2, 0, 1} { // input 2's packet is the oldest
		pkt := dataTo(3, 4096, 0)
		pkt.MsgID = uint64(in)
		h.inject(in, pkt)
		h.eng.RunFor(10 * units.Nanosecond)
	}
	h.eng.RunFor(units.Microsecond) // every head is past its cut-through gate
	if n := len(h.out[3].pkts); n != 0 {
		t.Fatalf("%d packets left without downstream credit", n)
	}
	// Return one packet of credit: the held packet lands and drains.
	gate.OnArrive(0, size)
	gate.OnDepart(0, size)
	h.eng.Run()

	got := h.out[3].pkts
	if len(got) != 1 {
		t.Fatalf("%d packets left on one packet of credit, want 1", len(got))
	}
	if in := got[0].MsgID; in != 0 {
		t.Fatalf("input %d's packet left, want input 0's (port-order admission)", in)
	}
	if a := gate.Available(0); a != 0 {
		t.Errorf("downstream credit = %d after the grant, want 0", a)
	}
}

func TestRRAlternatesPorts(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.sw.SetPolicy(ibswitch.RR)
	// Stall the egress, then queue two packets on port 0 and one on
	// port 1 (port 0's arrived earlier). RR must interleave: 0,1,0.
	h.inject(2, dataTo(3, 4096, 0))
	h.eng.RunFor(220 * units.Nanosecond)
	for i := 0; i < 2; i++ {
		p := dataTo(3, 64, 0)
		p.MsgID = uint64(10 + i)
		h.inject(0, p)
	}
	h.eng.RunFor(50 * units.Nanosecond)
	q := dataTo(3, 64, 0)
	q.MsgID = 20
	h.inject(1, q)
	h.eng.Run()
	pkts := h.out[3].pkts
	if len(pkts) != 4 {
		t.Fatalf("forwarded %d packets", len(pkts))
	}
	ids := []uint64{pkts[1].MsgID, pkts[2].MsgID, pkts[3].MsgID}
	// After the stalling packet: one from port0, then port1 (round
	// robin), then port0 again.
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 11 {
		t.Fatalf("RR order = %v, want [10 20 11]", ids)
	}
}

func TestVLArbHighPriorityWins(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.sw.SetPolicy(ibswitch.VLArb)
	h.sw.SetSL2VL(ib.DedicatedSL2VL())
	if err := h.sw.SetVLArb(ib.DedicatedVLArb()); err != nil {
		t.Fatal(err)
	}
	// Stall the egress; queue a VL0 packet first, then a VL1 packet.
	// Despite arriving later, VL1 must be served first.
	h.inject(2, dataTo(3, 4096, 0))
	h.eng.RunFor(220 * units.Nanosecond)
	low := dataTo(3, 4096, 0)
	low.MsgID = 1 // SL0 -> VL0
	h.inject(0, low)
	h.eng.RunFor(50 * units.Nanosecond)
	high := dataTo(3, 64, 1) // SL1 -> VL1
	high.MsgID = 2
	h.inject(1, high)
	h.eng.Run()
	pkts := h.out[3].pkts
	if len(pkts) != 3 {
		t.Fatalf("forwarded %d packets", len(pkts))
	}
	if pkts[1].MsgID != 2 {
		t.Fatalf("VL1 packet not prioritized: second forward was msg %d", pkts[1].MsgID)
	}
}

func TestVLArbSharesBandwidthByWeight(t *testing.T) {
	// Saturate VL0 and VL1 simultaneously and verify the byte split
	// approximates the configured H:L weights.
	h := newHarness(t, simParams(), 3)
	h.sw.SetPolicy(ibswitch.VLArb)
	h.sw.SetSL2VL(ib.DedicatedSL2VL())
	arb := ib.VLArbConfig{
		High:      []ib.VLArbEntry{{VL: 1, Weight: ib.WeightUnits(47)}},
		Low:       []ib.VLArbEntry{{VL: 0, Weight: ib.WeightUnits(55)}},
		HighLimit: ib.WeightUnits(47),
	}
	if err := h.sw.SetVLArb(arb); err != nil {
		t.Fatal(err)
	}
	// Feed both ingress ports continuously: port 0 sends VL0 4 KB, port 1
	// sends VL1 256 B, both to port 2.
	feed := func(port int, payload units.ByteSize, sl ib.SL) {
		var post func()
		post = func() {
			gate := h.sw.IngressGate(port)
			pkt := dataTo(2, payload, sl)
			gate.ReserveForWaiter(sl2vl(sl), pkt.WireSize(), waiterFunc(func() {
				now := h.eng.Now()
				h.sw.Ingress(port).DeliverArrival(pkt, now, now)
				post()
			}))
		}
		post()
	}
	feed(0, 4096, 0)
	feed(1, 256, 1)
	h.eng.RunUntil(units.Time(2 * units.Millisecond))
	var vl0, vl1 units.ByteSize
	for _, p := range h.out[2].pkts {
		if p.VL == 1 {
			vl1 += p.WireSize()
		} else {
			vl0 += p.WireSize()
		}
	}
	share := float64(vl1) / float64(vl0+vl1)
	want := 47.0 / (47 + 55)
	if share < want-0.05 || share > want+0.05 {
		t.Fatalf("VL1 wire share = %.3f, want ~%.3f", share, want)
	}
}

// sl2vl mirrors the dedicated table for the harness feeder.
func sl2vl(sl ib.SL) ib.VL {
	if sl == 1 {
		return 1
	}
	return 0
}

func TestArbOverheadActiveInputScaling(t *testing.T) {
	// With the HW profile's overhead, two saturated inputs drain slower
	// per packet than one.
	par := model.HWTestbed().Switch
	par.JitterMean = 0
	const sink = 5
	throughput := func(nInputs int) float64 {
		h := newHarness(t, par, 6)
		for p := 0; p < nInputs; p++ {
			p := p
			var post func()
			post = func() {
				gate := h.sw.IngressGate(p)
				pkt := dataTo(sink, 4096, 0)
				gate.ReserveForWaiter(0, pkt.WireSize(), waiterFunc(func() {
					now := h.eng.Now()
					h.sw.Ingress(p).DeliverArrival(pkt, now, now)
					post()
				}))
			}
			post()
		}
		h.eng.RunUntil(units.Time(2 * units.Millisecond))
		var bytes units.ByteSize
		for _, p := range h.out[sink].pkts {
			bytes += p.Payload
		}
		return float64(bytes) * 8 / 0.002 / 1e9
	}
	one := throughput(1)
	five := throughput(5)
	if five >= one {
		t.Fatalf("5-input goodput %.1f should trail 1-input %.1f (rearbitration overhead)", five, one)
	}
	drop := (one - five) / one
	if drop < 0.04 || drop > 0.20 {
		t.Fatalf("degradation = %.1f%%, want ~7-13%%", drop*100)
	}
}

func TestQueuedBytesAccounting(t *testing.T) {
	h := newHarness(t, simParams(), 2)
	// Stall the egress and queue one more packet behind it.
	h.inject(0, dataTo(1, 4096, 0))
	h.inject(0, dataTo(1, 4096, 0))
	if got := h.sw.QueuedBytes(0, 0); got != 2*4148 {
		t.Fatalf("queued = %d, want %d", got, 2*4148)
	}
	h.eng.Run()
	if got := h.sw.QueuedBytes(0, 0); got != 0 {
		t.Fatalf("queued after drain = %d, want 0", got)
	}
	if h.sw.ForwardedPackets != 2 {
		t.Fatalf("forwarded = %d", h.sw.ForwardedPackets)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[ibswitch.Policy]string{
		ibswitch.FCFS: "FCFS", ibswitch.RR: "RR", ibswitch.VLArb: "VLArb",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if ibswitch.Policy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestSetVLArbValidates(t *testing.T) {
	h := newHarness(t, simParams(), 2)
	bad := ib.VLArbConfig{Low: []ib.VLArbEntry{{VL: 0, Weight: -1}}}
	if err := h.sw.SetVLArb(bad); err == nil {
		t.Fatal("invalid VLArb config accepted")
	}
}

func TestNameAndPorts(t *testing.T) {
	h := newHarness(t, simParams(), 3)
	if h.sw.Name() != "test" || h.sw.NumPorts() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestSPFPrefersSmallPackets(t *testing.T) {
	h := newHarness(t, simParams(), 4)
	h.sw.SetPolicy(ibswitch.SPF)
	// Stall the egress; queue a large packet first, then a small one.
	// SPF must serve the small one despite its later arrival.
	h.inject(2, dataTo(3, 4096, 0))
	h.eng.RunFor(220 * units.Nanosecond)
	big := dataTo(3, 4096, 0)
	big.MsgID = 1
	h.inject(0, big)
	h.eng.RunFor(50 * units.Nanosecond)
	small := dataTo(3, 64, 0)
	small.MsgID = 2
	h.inject(1, small)
	h.eng.Run()
	pkts := h.out[3].pkts
	if len(pkts) != 3 {
		t.Fatalf("forwarded %d packets", len(pkts))
	}
	if pkts[1].MsgID != 2 {
		t.Fatalf("SPF did not prioritize the small packet: second was msg %d", pkts[1].MsgID)
	}
}

func TestVLRateLimitCapsThroughput(t *testing.T) {
	par := simParams()
	h := newHarness(t, par, 3)
	h.sw.SetVLRateLimit(0, 10*units.Gbps, 8*units.KB)
	// Feed a continuous stream; delivered rate must respect the cap.
	var post func()
	post = func() {
		gate := h.sw.IngressGate(0)
		pkt := dataTo(2, 4096, 0)
		gate.ReserveForWaiter(0, pkt.WireSize(), waiterFunc(func() {
			now := h.eng.Now()
			h.sw.Ingress(0).DeliverArrival(pkt, now, now)
			post()
		}))
	}
	post()
	h.eng.RunUntil(units.Time(2 * units.Millisecond))
	var wire units.ByteSize
	for _, p := range h.out[2].pkts {
		wire += p.WireSize()
	}
	gbps := float64(wire) * 8 / 0.002 / 1e9
	if gbps > 10.8 {
		t.Fatalf("rate limit leaked: %.1f Gb/s through a 10 Gb/s cap", gbps)
	}
	if gbps < 9.0 {
		t.Fatalf("rate limit overthrottled: %.1f Gb/s of a 10 Gb/s cap", gbps)
	}
}

func TestVLRateLimitZeroRemoves(t *testing.T) {
	h := newHarness(t, simParams(), 2)
	h.sw.SetVLRateLimit(0, 1*units.Gbps, 4*units.KB)
	h.sw.SetVLRateLimit(0, 0, 0) // remove
	h.inject(0, dataTo(1, 4096, 0))
	h.eng.Run()
	if len(h.out[1].pkts) != 1 {
		t.Fatal("packet not forwarded after limit removal")
	}
}

func TestVLRateLimitOnlyAffectsConfiguredVL(t *testing.T) {
	h := newHarness(t, simParams(), 3)
	h.sw.SetSL2VL(ib.DedicatedSL2VL())
	h.sw.SetVLRateLimit(1, 1*units.Gbps, 400)
	// VL0 traffic is unaffected.
	h.inject(0, dataTo(2, 4096, 0))
	h.eng.RunFor(units.Duration(900) * units.Nanosecond)
	if len(h.out[2].pkts) != 1 {
		t.Fatal("VL0 packet delayed by a VL1 limit")
	}
}
