package rnic_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/rnic"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
)

// rperfPair posts an over-the-wire SEND and a loopback SEND on distinct
// engines and returns the RPerf RTT sample TW - TL (paper Eq. 1) via done.
func rperfPair(c *topology.Cluster, wire, loop *rnic.QP, payload units.ByteSize, done func(rtt units.Duration)) {
	n := c.NIC(0)
	var tw, tl units.Time
	var have int
	finish := func() {
		have++
		if have == 2 {
			done(tw.Sub(tl))
		}
	}
	n.PostSend(wire, ib.VerbSend, payload, func(at units.Time) { tw = at; finish() })
	n.PostSend(loop, ib.VerbSend, payload, func(at units.Time) { tl = at; finish() })
}

func runRPerfLoop(t *testing.T, c *topology.Cluster, dst ib.NodeID, payload units.ByteSize, iters int) *stats.Histogram {
	t.Helper()
	n := c.NIC(0)
	wire := n.CreateQP(ib.RC, dst, 0, rnic.WithEngine(0))
	loop := n.CreateQP(ib.RC, n.Node(), 0, rnic.WithEngine(1))
	h := stats.NewHistogram()
	count := 0
	var iterate func()
	iterate = func() {
		rperfPair(c, wire, loop, payload, func(rtt units.Duration) {
			h.RecordDuration(rtt)
			count++
			if count < iters {
				iterate()
			}
		})
	}
	iterate()
	c.Eng.Run()
	if h.Count() != uint64(iters) {
		t.Fatalf("completed %d/%d iterations", h.Count(), iters)
	}
	return h
}

func TestBackToBackRTT64B(t *testing.T) {
	// Fig. 4 without the switch: 64 B median RTT ~20 ns, tail ~47 ns.
	c := topology.BackToBack(model.HWTestbed(), 1)
	h := runRPerfLoop(t, c, 1, 64, 3000)
	med := h.MedianDuration().Nanoseconds()
	tail := h.P999Duration().Nanoseconds()
	if med < 15 || med > 30 {
		t.Errorf("median = %.1f ns, want ~20", med)
	}
	if tail < 35 || tail > 65 {
		t.Errorf("p99.9 = %.1f ns, want ~47", tail)
	}
}

func TestBackToBackRTT4096B(t *testing.T) {
	// Fig. 4 without the switch: 4096 B median ~76 ns.
	c := topology.BackToBack(model.HWTestbed(), 2)
	h := runRPerfLoop(t, c, 1, 4096, 2000)
	med := h.MedianDuration().Nanoseconds()
	if med < 60 || med > 95 {
		t.Errorf("median = %.1f ns, want ~76", med)
	}
}

func TestSwitchRTT64B(t *testing.T) {
	// Fig. 4 with the switch: 64 B median ~432 ns, tail ~625 ns.
	c := topology.Star(model.HWTestbed(), 7, 3)
	h := runRPerfLoop(t, c, 6, 64, 3000)
	med := h.MedianDuration().Nanoseconds()
	tail := h.P999Duration().Nanoseconds()
	if med < 390 || med > 480 {
		t.Errorf("median = %.1f ns, want ~432", med)
	}
	if tail < 550 || tail > 700 {
		t.Errorf("p99.9 = %.1f ns, want ~625", tail)
	}
}

func TestSimProfileSwitchRTTNoTail(t *testing.T) {
	// The OMNeT-like profile has no uArch jitter: median == tail ~0.4 us
	// (paper Fig. 10 at zero BSGs).
	c := topology.Star(model.OMNeTSim(), 7, 4)
	h := runRPerfLoop(t, c, 6, 64, 500)
	med := h.MedianDuration().Nanoseconds()
	tail := h.P999Duration().Nanoseconds()
	if med < 380 || med > 470 {
		t.Errorf("median = %.1f ns, want ~430", med)
	}
	if tail-med > 10 {
		t.Errorf("tail-median gap = %.1f ns, want ~0 in the simulator profile", tail-med)
	}
}

// openLoopBandwidth drives an open-loop generator from src to dst and
// returns delivered goodput.
func openLoopBandwidth(t *testing.T, c *topology.Cluster, src, dst int, payload units.ByteSize, dur units.Duration) units.Bandwidth {
	t.Helper()
	n := c.NIC(src)
	qp := n.CreateQP(ib.RC, ib.NodeID(dst), 0)
	meter := stats.NewBandwidthMeter()
	warm := units.Time(0).Add(dur / 5)
	meter.Open(warm)
	c.NIC(dst).OnDeliver = func(pkt *ib.Packet, wireEnd units.Time) {
		if pkt.SrcNode == ib.NodeID(src) && pkt.Kind == ib.KindData {
			meter.Record(wireEnd, pkt.Payload)
		}
	}
	const outstanding = 64
	var post func()
	post = func() {
		n.PostSend(qp, ib.VerbWrite, payload, func(units.Time) { post() })
	}
	for i := 0; i < outstanding; i++ {
		post()
	}
	end := units.Time(0).Add(dur)
	c.Eng.RunUntil(end)
	meter.Close(end)
	return meter.Goodput()
}

func TestBandwidth4096BackToBack(t *testing.T) {
	// Fig. 5 without the switch: ~52-53 Gb/s at 4096 B.
	c := topology.BackToBack(model.HWTestbed(), 5)
	bw := openLoopBandwidth(t, c, 0, 1, 4096, 2*units.Millisecond)
	if g := bw.Gigabits(); g < 51 || g > 54.5 {
		t.Errorf("goodput = %.1f Gb/s, want ~52.7", g)
	}
}

func TestBandwidth64BackToBack(t *testing.T) {
	// Fig. 5 without the switch: ~4.1 Gb/s at 64 B (8 Mpps ceiling).
	c := topology.BackToBack(model.HWTestbed(), 6)
	bw := openLoopBandwidth(t, c, 0, 1, 64, units.Millisecond)
	if g := bw.Gigabits(); g < 3.8 || g > 4.4 {
		t.Errorf("goodput = %.1f Gb/s, want ~4.1", g)
	}
}

func TestBandwidth4096ThroughSwitch(t *testing.T) {
	// Fig. 5 with the switch, one-to-one: ~52.2 Gb/s in the paper, with
	// the switch shaving ~1 Gb/s off the back-to-back number. Our model
	// loses ~2 Gb/s (per-packet pipeline jitter idles the egress); the
	// ordering with-switch < without-switch is what matters.
	c := topology.Star(model.HWTestbed(), 7, 7)
	bw := openLoopBandwidth(t, c, 0, 6, 4096, 2*units.Millisecond)
	if g := bw.Gigabits(); g < 49.5 || g > 54.5 {
		t.Errorf("goodput = %.1f Gb/s, want ~50-52", g)
	}
}

func TestUDSendCompletesAtInjection(t *testing.T) {
	// Fig. 1c: UD CQE does not wait for any remote response.
	par := model.HWTestbed()
	c := topology.BackToBack(par, 8)
	n := c.NIC(0)
	qp := n.CreateQP(ib.UD, 1, 0)
	var cqe units.Time
	n.PostSend(qp, ib.VerbSend, 64, func(at units.Time) { cqe = at })
	c.Eng.Run()
	if cqe == 0 {
		t.Fatal("UD send never completed")
	}
	// Injection end = MMIO + DMA fetch + serialization; CQE adds only
	// CQEDeliver — no propagation or ACK time.
	expect := par.NIC.MMIOPost + par.NIC.DMARead(64) +
		units.Serialization(64+ib.MaxHeaderBytes, par.NIC.LinkBandwidth) + par.NIC.CQEDeliver
	if got := units.Duration(cqe); math.Abs(got.Nanoseconds()-expect.Nanoseconds()) > 1 {
		t.Errorf("UD CQE at %v, want ~%v", got, expect)
	}
}

func TestUDRejectsOneSidedVerbs(t *testing.T) {
	c := topology.BackToBack(model.HWTestbed(), 9)
	n := c.NIC(0)
	qp := n.CreateQP(ib.UD, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("UD WRITE should panic")
		}
	}()
	n.PostSend(qp, ib.VerbWrite, 64, nil)
}

func TestRCWriteAckAfterRemoteDMA(t *testing.T) {
	// Fig. 1b vs 1d: a WRITE's completion includes the remote DMA write;
	// a SEND's does not. Same payload, same path — WRITE must complete
	// later by roughly the remote DMA write time.
	par := model.HWTestbed()
	par.NIC.JitterMean = 0 // deterministic comparison

	run := func(verb ib.Verb, seed uint64) units.Duration {
		c := topology.BackToBack(par, seed)
		n := c.NIC(0)
		qp := n.CreateQP(ib.RC, 1, 0)
		var cqe units.Time
		n.PostSend(qp, verb, 4096, func(at units.Time) { cqe = at })
		c.Eng.Run()
		return units.Duration(cqe)
	}
	send := run(ib.VerbSend, 10)
	write := run(ib.VerbWrite, 10)
	gap := (write - send).Nanoseconds()
	wantGap := par.NIC.DMAWrite(4096).Nanoseconds()
	if math.Abs(gap-wantGap) > 2 {
		t.Errorf("WRITE-SEND completion gap = %.1f ns, want ~%.1f (remote DMA write)", gap, wantGap)
	}
}

func TestRCReadFetchesRemoteData(t *testing.T) {
	// Fig. 1a: READ = request (no payload) -> remote DMA read -> response
	// with payload -> local DMA write -> CQE.
	par := model.HWTestbed()
	par.NIC.JitterMean = 0
	c := topology.BackToBack(par, 11)
	n := c.NIC(0)
	qp := n.CreateQP(ib.RC, 1, 0)
	var cqe units.Time
	n.PostSend(qp, ib.VerbRead, 4096, func(at units.Time) { cqe = at })
	c.Eng.Run()
	if cqe == 0 {
		t.Fatal("READ never completed")
	}
	// Lower bound: MMIO + request wire + remote DMA read + response wire
	// + local DMA write + CQE.
	min := par.NIC.MMIOPost +
		units.Serialization(ib.MaxHeaderBytes, par.NIC.LinkBandwidth) +
		par.NIC.DMARead(4096) +
		units.Serialization(4096+ib.MaxHeaderBytes, par.NIC.LinkBandwidth) +
		par.NIC.DMAWrite(4096) + par.NIC.CQEDeliver
	if units.Duration(cqe) < min {
		t.Errorf("READ completed at %v, faster than physically possible %v", units.Duration(cqe), min)
	}
	if units.Duration(cqe) > min+500*units.Nanosecond {
		t.Errorf("READ completed at %v, much slower than expected ~%v", units.Duration(cqe), min)
	}
}

func TestMessageSegmentation(t *testing.T) {
	// A 10000 B message crosses as three packets; one ACK, one CQE.
	par := model.HWTestbed()
	c := topology.BackToBack(par, 12)
	n := c.NIC(0)
	qp := n.CreateQP(ib.RC, 1, 0)
	var packets int
	var lastPayload units.ByteSize
	c.NIC(1).OnDeliver = func(pkt *ib.Packet, _ units.Time) {
		packets++
		lastPayload = pkt.Payload
	}
	completions := 0
	n.PostSend(qp, ib.VerbSend, 10000, func(units.Time) { completions++ })
	c.Eng.Run()
	if packets != 3 {
		t.Errorf("delivered %d packets, want 3", packets)
	}
	if lastPayload != 10000-2*4096 {
		t.Errorf("last segment payload = %d, want %d", lastPayload, 10000-2*4096)
	}
	if completions != 1 {
		t.Errorf("completions = %d, want 1", completions)
	}
	if n.PendingOps() != 0 {
		t.Errorf("pending ops = %d, want 0", n.PendingOps())
	}
}

// TestObserversRunInInstallOrder: two observers chained on one NIC both see
// every delivered packet and every received message, earlier observer first.
func TestObserversRunInInstallOrder(t *testing.T) {
	c := topology.BackToBack(model.HWTestbed(), 12)
	n := c.NIC(0)
	qp := n.CreateQP(ib.RC, 1, 0)
	var deliver, recv []string
	dst := c.NIC(1)
	for _, name := range []string{"a", "b"} {
		dst.AddDeliverObserver(func(pkt *ib.Packet, _ units.Time) {
			deliver = append(deliver, fmt.Sprintf("%s:%d", name, pkt.Payload))
		})
		dst.AddRecvObserver(func(pkt *ib.Packet, _, _ units.Time) {
			recv = append(recv, fmt.Sprintf("%s:%d", name, pkt.Payload))
		})
	}
	n.PostSend(qp, ib.VerbSend, 10000, nil) // three packets, one message
	c.Eng.Run()
	if got, want := strings.Join(deliver, " "), "a:4096 b:4096 a:4096 b:4096 a:1808 b:1808"; got != want {
		t.Errorf("deliver observers saw %q, want %q", got, want)
	}
	if got, want := strings.Join(recv, " "), "a:1808 b:1808"; got != want {
		t.Errorf("recv observers saw %q, want %q", got, want)
	}
}

func TestRecvMessageHookTimestamps(t *testing.T) {
	par := model.HWTestbed()
	par.NIC.JitterMean = 0
	c := topology.BackToBack(par, 13)
	n := c.NIC(0)
	qp := n.CreateQP(ib.RC, 1, 0)
	var wireEnd, visible units.Time
	c.NIC(1).OnRecvMessage = func(pkt *ib.Packet, we, vis units.Time) {
		wireEnd, visible = we, vis
	}
	n.PostSend(qp, ib.VerbSend, 1024, nil)
	c.Eng.Run()
	if wireEnd == 0 {
		t.Fatal("no message received")
	}
	wantGap := par.NIC.RxPipeline + par.NIC.DMAWrite(1024) + par.NIC.CQEDeliver
	if got := visible.Sub(wireEnd); got != wantGap {
		t.Errorf("software visibility gap = %v, want %v", got, wantGap)
	}
}

func TestLoopbackLatencyExcludesNetwork(t *testing.T) {
	// The loopback CQE must capture only local-side processing: shorter
	// than the wire RTT, and independent of the fabric.
	par := model.HWTestbed()
	par.NIC.JitterMean = 0
	c := topology.Star(par, 7, 14)
	n := c.NIC(0)
	loop := n.CreateQP(ib.RC, n.Node(), 0)
	var cqe units.Time
	n.PostSend(loop, ib.VerbSend, 64, func(at units.Time) { cqe = at })
	c.Eng.Run()
	want := par.NIC.MMIOPost + par.NIC.DMARead(64) +
		units.Serialization(64+ib.MaxHeaderBytes, par.NIC.LoopbackBandwidth) + par.NIC.CQEDeliver
	if got := units.Duration(cqe); math.Abs(got.Nanoseconds()-want.Nanoseconds()) > 1 {
		t.Errorf("loopback CQE at %v, want %v", got, want)
	}
}

func TestEngineParallelismAcrossQPs(t *testing.T) {
	// Two QPs on different engines overlap; on the same engine they
	// serialize. This is what makes RPerf's subtraction valid.
	par := model.HWTestbed()
	par.NIC.JitterMean = 0
	run := func(sameEngine bool) units.Duration {
		c := topology.BackToBack(par, 15)
		n := c.NIC(0)
		q1 := n.CreateQP(ib.RC, n.Node(), 0, rnic.WithEngine(0))
		engine2 := 1
		if sameEngine {
			engine2 = 0
		}
		q2 := n.CreateQP(ib.RC, n.Node(), 0, rnic.WithEngine(engine2))
		var last units.Time
		done := func(at units.Time) {
			if at > last {
				last = at
			}
		}
		n.PostSend(q1, ib.VerbSend, 4096, done)
		n.PostSend(q2, ib.VerbSend, 4096, done)
		c.Eng.Run()
		return units.Duration(last)
	}
	parallel := run(false)
	serial := run(true)
	if serial <= parallel {
		t.Errorf("same-engine completion %v should exceed cross-engine %v", serial, parallel)
	}
}

func TestRoundRobinQPEngineAssignment(t *testing.T) {
	c := topology.BackToBack(model.HWTestbed(), 16)
	n := c.NIC(0)
	// Post two large messages on consecutively created QPs: round-robin
	// assignment should overlap them.
	q1 := n.CreateQP(ib.RC, 1, 0)
	q2 := n.CreateQP(ib.RC, 1, 0)
	var times []units.Time
	cb := func(at units.Time) { times = append(times, at) }
	n.PostSend(q1, ib.VerbSend, 4096, cb)
	n.PostSend(q2, ib.VerbSend, 4096, cb)
	c.Eng.Run()
	if len(times) != 2 {
		t.Fatal("missing completions")
	}
	gap := times[1].Sub(times[0])
	// With parallel engines the second completion trails only by the wire
	// serialization (shared cable), well under a full engine occupancy.
	occ := model.HWTestbed().NIC.EngineOccupancy(4148, 125*units.Nanosecond)
	if gap >= occ {
		t.Errorf("completion gap %v suggests engines serialized (occupancy %v)", gap, occ)
	}
}

func TestInjectionLimiterCapsSingleSource(t *testing.T) {
	// A 20 Gb/s injection bucket on VL0 caps an otherwise ~52 Gb/s
	// open-loop flow at the promised wire rate (goodput excludes the 52 B
	// header overhead: 20 * 4096/4148 ≈ 19.7 Gb/s).
	c := topology.BackToBack(model.HWTestbed(), 5)
	lim := rnic.NewInjectionLimiter(20*units.Gbps, 0)
	c.NIC(0).SetInjectionLimit(0, lim)
	bw := openLoopBandwidth(t, c, 0, 1, 4096, 2*units.Millisecond)
	want := 20.0 * 4096 / (4096 + float64(ib.MaxHeaderBytes))
	if g := bw.Gigabits(); math.Abs(g-want) > 0.5 {
		t.Errorf("goodput = %.2f Gb/s, want ~%.2f (limited)", g, want)
	}
}

func TestInjectionLimiterSharedAcrossNICs(t *testing.T) {
	// One bucket installed on two senders bounds their AGGREGATE rate:
	// the slice is per tenant, not per NIC.
	c := topology.Star(model.HWTestbed(), 7, 9)
	lim := rnic.NewInjectionLimiter(24*units.Gbps, 0)
	c.NIC(0).SetInjectionLimit(0, lim)
	c.NIC(1).SetInjectionLimit(0, lim)
	meter := stats.NewBandwidthMeter()
	dur := 2 * units.Millisecond
	warm := units.Time(0).Add(dur / 5)
	meter.Open(warm)
	c.NIC(6).OnDeliver = func(pkt *ib.Packet, wireEnd units.Time) {
		if pkt.Kind == ib.KindData {
			meter.Record(wireEnd, pkt.Payload)
		}
	}
	for _, src := range []int{0, 1} {
		n := c.NIC(src)
		qp := n.CreateQP(ib.RC, 6, 0)
		var post func()
		post = func() { n.PostSend(qp, ib.VerbWrite, 4096, func(units.Time) { post() }) }
		for i := 0; i < 64; i++ {
			post()
		}
	}
	end := units.Time(0).Add(dur)
	c.Eng.RunUntil(end)
	meter.Close(end)
	want := 24.0 * 4096 / (4096 + float64(ib.MaxHeaderBytes))
	if g := meter.Goodput().Gigabits(); math.Abs(g-want) > 0.7 {
		t.Errorf("aggregate goodput = %.2f Gb/s, want ~%.2f (shared bucket)", g, want)
	}
}

// TestRelDeferralsAtTies pins the tie rule of the RNR count derived from an
// op's recorded deadline, on a back-to-back pair: a one-segment RC WRITE
// posted at 0 leaves its idle NIC at the MMIO doorbell plus the payload
// DMA. A deadline at that wire instant is not yet due; one picosecond
// earlier it is one deferral. Read while the segment is still queued,
// RelStats counts a deadline at the read instant as passed.
func TestRelDeferralsAtTies(t *testing.T) {
	const payload units.ByteSize = 64
	for _, tc := range []struct {
		name         string
		shift        units.Duration // ack timeout minus the wire instant
		read, onWire uint64         // deferrals just before and at the wire instant
	}{
		{"deadline 1ps before the wire instant", -1, 1, 1},
		{"deadline at the wire instant", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := topology.BackToBack(model.HWTestbed(), 1)
			n := c.NIC(0)
			par := n.Params()
			wireAt := units.Time(0).Add(par.MMIOPost + par.DMARead(payload))
			c.EnableReliability(wireAt.Sub(0)+tc.shift, 7)
			n.PostSend(n.CreateQP(ib.RC, 1, 0), ib.VerbWrite, payload, nil)

			c.Eng.RunUntil(wireAt - 1)
			if data, _ := n.QueuedPackets(); data != 1 {
				t.Fatalf("%d packets queued 1ps before %v, want the one segment", data, wireAt)
			}
			if got := n.RelStats().RNRBackoffs; got != tc.read {
				t.Errorf("read while queued: %d deferrals, want %d", got, tc.read)
			}
			c.Eng.RunUntil(wireAt)
			if data, _ := n.QueuedPackets(); data != 0 {
				t.Fatalf("segment still queued at %v", wireAt)
			}
			if got := n.RelStats().RNRBackoffs; got != tc.onWire {
				t.Errorf("once on the wire: %d deferrals, want %d", got, tc.onWire)
			}
		})
	}
}
