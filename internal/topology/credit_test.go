package topology

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestCreditConservationAtQuiescence audits every link's credit and every
// NIC's send engines once a fabric has gone quiet: after all-pairs RC
// WRITEs have completed, every registered wire whose gate keeps credit has
// its whole window back on every VL, every receiving accounting holds no
// bytes, and every NIC has no packet left in its data or responder send
// engines and no operation pending. Every such gate holds exactly the VLs
// the installed SL-to-VL table reaches, at the switch's windows. It covers
// local links (BufferGate), core links on one and two shards (the split
// gate), lossy links whose drops return credit through the fault
// path, local and cross-shard, and a table that reaches VL 3 with the
// writes spread over SLs 0-3, whose ports and gates on both sides of the
// shard cut grow from VL0 when the table is installed.
func TestCreditConservationAtQuiescence(t *testing.T) {
	par := model.HWTestbed()
	threeTier := func(shards int) func() (*Cluster, error) {
		return func() (*Cluster, error) { return auditThreeTier(shards) }
	}
	for _, tc := range []struct {
		name  string
		build func() (*Cluster, error)
		lossy bool // auditLossyLinks drop 5% of packets, reliability on
		// vls > 1 installs a table mapping SL i to VL i for i < vls and
		// spreads the writes over those SLs; otherwise every write rides
		// SL0 under the default table.
		vls int
	}{
		{"star", func() (*Cluster, error) { return Star(par, 7, 1), nil }, false, 1},
		{"twotier 3+4", func() (*Cluster, error) { return TwoTier(par, 3, 4, 1), nil }, false, 1},
		{"threetier shards 1", threeTier(1), false, 1},
		{"threetier shards 2", threeTier(2), false, 1},
		{"threetier shards 2 lossy", threeTier(2), true, 1},
		{"threetier shards 2 vls 0-3", threeTier(2), false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if tc.lossy {
				makeLossy(t, c)
			}
			// forwarded[i][vl] counts switch i's packets on vl; each
			// switch's hook runs on its own shard.
			forwarded := make([][ib.NumVLs]int, len(c.Switches))
			if tc.vls > 1 {
				sls := make([]ib.SL, tc.vls)
				for i := range sls {
					sls[i] = ib.SL(i)
				}
				table, err := ib.SliceSL2VL(sls)
				if err != nil {
					t.Fatal(err)
				}
				c.SetSL2VL(table)
				for i, sw := range c.Switches {
					sw.OnForward = func(pkt *ib.Packet, _, _ units.Time) { forwarded[i][pkt.VL]++ }
				}
			}
			runAllPairsWrites(t, c, tc.vls)
			if tc.lossy {
				if _, drops := c.FaultTotals(); drops == 0 {
					t.Fatal("no packet was dropped: the fault path went unexercised")
				}
			}
			if tc.vls > 1 {
				for vl := 0; vl < tc.vls; vl++ {
					n := 0
					for i := range forwarded {
						n += forwarded[i][vl]
					}
					if n == 0 {
						t.Errorf("no packet was forwarded on vl %d", vl)
					}
				}
			}
			for i, nic := range c.NICs {
				if data, resp := nic.QueuedPackets(); data != 0 || resp != 0 {
					t.Errorf("nic %d: %d data and %d responder packets still queued at quiescence", i, data, resp)
				}
				if ops := nic.PendingOps(); ops != 0 {
					t.Errorf("nic %d: %d operations still pending at quiescence", i, ops)
				}
			}
			type window interface {
				Available(ib.VL) units.ByteSize
				Window(ib.VL) units.ByteSize
			}
			type occupancy interface{ Occupancy(ib.VL) units.ByteSize }
			for _, name := range c.linkNames {
				fl := c.links[name]
				for vl := ib.VL(0); int(vl) < ib.NumVLs; vl++ {
					if g, ok := fl.wire.Gate().(window); ok {
						want := units.ByteSize(0) // on a VL the table does not reach
						if int(vl) < tc.vls {
							want = par.Switch.WindowFor(vl)
						}
						if g.Window(vl) != want {
							t.Errorf("%s vl %d: %d B window, want %d", name, vl, g.Window(vl), want)
						}
						if g.Available(vl) != g.Window(vl) {
							t.Errorf("%s vl %d: %d of %d B of credit available at quiescence", name, vl, g.Available(vl), g.Window(vl))
						}
					}
					if a, ok := fl.acct.(occupancy); ok && a.Occupancy(vl) != 0 {
						t.Errorf("%s vl %d: %d B still resident at quiescence", name, vl, a.Occupancy(vl))
					}
				}
			}
		})
	}
}

// auditThreeTier builds the audits' three-tier fabric: two pods of two
// leaves, one spine per pod, two hosts per leaf, and a 100 ns core link.
func auditThreeTier(shards int) (*Cluster, error) {
	coreLink := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 100 * units.Nanosecond}
	spec := FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1, CoreLink: &coreLink}
	return FatTree3(model.HWTestbed(), spec, 1, shards)
}

// auditLossyLinks are the links makeLossy drops packets on: two spine
// egresses, a leaf uplink and a core egress, so losses hit local and
// cross-shard wires at two shards.
var auditLossyLinks = []string{"pod0.spine0.p0", "pod0.spine0.p2", "pod1.leaf0.p2", "core0.p1"}

// makeLossy turns on RC reliability (20 µs ack timeout, 7 retries) and 5%
// Bernoulli loss on auditLossyLinks.
func makeLossy(t *testing.T, c *Cluster) {
	t.Helper()
	c.EnableReliability(20*units.Microsecond, 7)
	for _, name := range auditLossyLinks {
		if err := c.SetLinkDrop(name, 0.05); err != nil {
			t.Fatal(err)
		}
	}
}

// runAllPairsWrites posts four 4 KiB RC WRITEs from every NIC to every
// other, on SL (src+dst) mod sls, runs the fabric for 20 ms and requires
// every message completed.
func runAllPairsWrites(t *testing.T, c *Cluster, sls int) {
	t.Helper()
	n := len(c.NICs)
	// done[src] counts src's completions, which run on src's shard.
	done := make([]int, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), ib.SL((src+dst)%sls))
			for k := 0; k < 4; k++ {
				c.NIC(src).PostSend(qp, ib.VerbWrite, 4*units.KB, func(units.Time) { done[src]++ })
			}
		}
	}
	c.RunUntil(units.Time(0).Add(20 * units.Millisecond))
	for src, d := range done {
		if want := 4 * (n - 1); d != want {
			t.Fatalf("node %d completed %d of %d messages", src, d, want)
		}
	}
}

// TestFaultAckTimersFireOnlyToAct requires every ack timer that fires to
// act: on the audit's lossy fabric, the executed rnic:rto events number
// exactly the retransmissions plus the terminal QP errors. A timer armed
// while an op's segments still wait in its own send queue would fire only
// to defer itself (an RNR backoff, counted in RNRBackoffs); the timer is
// armed once the last segment is on the wire instead, and the deferrals
// are derived from the recorded deadline. RNRBackoffs must be positive, or
// the fabric never queued an op past its first deadline and the equality
// would hold vacuously.
func TestFaultAckTimersFireOnlyToAct(t *testing.T) {
	c, err := auditThreeTier(2)
	if err != nil {
		t.Fatal(err)
	}
	makeLossy(t, c)
	// One counter per shard engine: each engine traces on its own worker.
	fired := map[*sim.Engine]*uint64{}
	for _, nic := range c.NICs {
		eng := nic.Engine()
		if fired[eng] != nil {
			continue
		}
		n := new(uint64)
		fired[eng] = n
		eng.Trace = func(_ units.Time, label string) {
			if label == "rnic:rto" {
				*n++
			}
		}
	}
	runAllPairsWrites(t, c, 1)
	var timers uint64
	for _, n := range fired {
		timers += *n
	}
	rel := c.RelTotals()
	if rel.RNRBackoffs == 0 {
		t.Fatal("no ack timeout was deferred: no op waited in its send queue past its deadline")
	}
	if want := rel.Retransmits + rel.QPErrors; timers != want {
		t.Errorf("%d ack timers fired, want %d (%d retransmissions + %d QP errors); %d deferrals",
			timers, want, rel.Retransmits, rel.QPErrors, rel.RNRBackoffs)
	}
}
