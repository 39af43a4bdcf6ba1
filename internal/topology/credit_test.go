package topology

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/units"
)

// TestCreditConservationAtQuiescence audits every link's credit and every
// NIC's send engines once a fabric has gone quiet: after all-pairs RC
// WRITEs have completed, every registered wire whose gate keeps credit has
// its whole window back on every VL, every receiving accounting holds no
// bytes, and every NIC has no packet left in its data or responder send
// engines and no operation pending. It covers
// local links (BufferGate), core links on one and two shards (the split
// gate), and lossy links whose drops return credit through the fault
// path, local and cross-shard.
func TestCreditConservationAtQuiescence(t *testing.T) {
	par := model.HWTestbed()
	coreLink := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 100 * units.Nanosecond}
	tiered := FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1, CoreLink: &coreLink}
	threeTier := func(shards int) func() (*Cluster, error) {
		return func() (*Cluster, error) { return FatTree3(par, tiered, 1, shards) }
	}
	for _, tc := range []struct {
		name  string
		build func() (*Cluster, error)
		lossy []string // links with 5% Bernoulli loss, reliability on
	}{
		{"star", func() (*Cluster, error) { return Star(par, 7, 1), nil }, nil},
		{"twotier 3+4", func() (*Cluster, error) { return TwoTier(par, 3, 4, 1), nil }, nil},
		{"threetier shards 1", threeTier(1), nil},
		{"threetier shards 2", threeTier(2), nil},
		{"threetier shards 2 lossy", threeTier(2), []string{"pod0.spine0.p0", "pod0.spine0.p2", "pod1.leaf0.p2", "core0.p1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if tc.lossy != nil {
				c.EnableReliability(20*units.Microsecond, 7)
				for _, name := range tc.lossy {
					if err := c.SetLinkDrop(name, 0.05); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := len(c.NICs)
			// done[src] counts src's completions, which run on src's shard.
			done := make([]int, n)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
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
			if tc.lossy != nil {
				if _, drops := c.FaultTotals(); drops == 0 {
					t.Fatal("no packet was dropped: the fault path went unexercised")
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
					if g, ok := fl.wire.Gate().(window); ok && g.Available(vl) != g.Window(vl) {
						t.Errorf("%s vl %d: %d of %d B of credit available at quiescence", name, vl, g.Available(vl), g.Window(vl))
					}
					if a, ok := fl.acct.(occupancy); ok && a.Occupancy(vl) != 0 {
						t.Errorf("%s vl %d: %d B still resident at quiescence", name, vl, a.Occupancy(vl))
					}
				}
			}
		})
	}
}
