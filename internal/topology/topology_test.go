package topology_test

import (
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestBackToBackShape(t *testing.T) {
	c := topology.BackToBack(model.HWTestbed(), 1)
	if len(c.NICs) != 2 || len(c.Switches) != 0 {
		t.Fatalf("back-to-back: %d NICs, %d switches", len(c.NICs), len(c.Switches))
	}
}

func TestStarShape(t *testing.T) {
	c := topology.Star(model.HWTestbed(), 7, 1)
	if len(c.NICs) != 7 || len(c.Switches) != 1 {
		t.Fatalf("star: %d NICs, %d switches", len(c.NICs), len(c.Switches))
	}
	if c.Switches[0].NumPorts() != 7 {
		t.Fatalf("switch ports = %d", c.Switches[0].NumPorts())
	}
}

func TestTwoTierShape(t *testing.T) {
	c := topology.TwoTier(model.HWTestbed(), 3, 4, 1)
	if len(c.NICs) != 7 || len(c.Switches) != 2 {
		t.Fatalf("two-tier: %d NICs, %d switches", len(c.NICs), len(c.Switches))
	}
}

func sendAndWait(t *testing.T, c *topology.Cluster, src, dst int) {
	t.Helper()
	qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
	done := false
	c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(units.Time) { done = true })
	c.Eng.Run()
	if !done {
		t.Fatalf("message %d->%d never completed", src, dst)
	}
}

func TestStarAllPairsReachable(t *testing.T) {
	c := topology.Star(model.HWTestbed(), 7, 2)
	for src := 0; src < 7; src++ {
		for dst := 0; dst < 7; dst++ {
			if src == dst {
				continue
			}
			sendAndWait(t, c, src, dst)
		}
	}
}

func TestTwoTierCrossSwitchRouting(t *testing.T) {
	c := topology.TwoTier(model.HWTestbed(), 3, 4, 3)
	// Up -> down, down -> up, and intra-switch pairs.
	sendAndWait(t, c, 0, 6) // upstream host to downstream server
	sendAndWait(t, c, 6, 0) // reverse
	sendAndWait(t, c, 0, 1) // intra-upstream
	sendAndWait(t, c, 3, 6) // intra-downstream
}

func TestTwoTierExtraHopAddsLatency(t *testing.T) {
	par := model.OMNeTSim() // deterministic
	c := topology.TwoTier(par, 3, 4, 4)
	measure := func(src, dst int) units.Duration {
		qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
		t0 := c.Eng.Now()
		var rtt units.Duration
		c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { rtt = at.Sub(t0) })
		c.Eng.Run()
		return rtt
	}
	oneHop := measure(3, 6)   // both on the downstream switch
	twoHops := measure(0, 6)  // crosses the trunk
	extra := twoHops - oneHop // expect ~2x (base latency + prop) per direction
	want := 2 * (par.Switch.BaseLatency + par.Link.Propagation)
	tol := 10 * units.Nanosecond
	if extra < want-tol || extra > want+tol {
		t.Fatalf("extra hop cost = %v, want ~%v", extra, want)
	}
}

func TestSetPolicyAndQoSPropagate(t *testing.T) {
	c := topology.TwoTier(model.HWTestbed(), 3, 4, 5)
	c.SetPolicy(ibswitch.RR)
	c.SetSL2VL(ib.DedicatedSL2VL())
	if err := c.SetVLArb(ib.DedicatedVLArb()); err != nil {
		t.Fatal(err)
	}
	bad := ib.VLArbConfig{Low: []ib.VLArbEntry{{VL: 0, Weight: 0}}}
	if err := c.SetVLArb(bad); err == nil {
		t.Fatal("invalid VLArb accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() units.Duration {
		c := topology.Star(model.HWTestbed(), 7, 99)
		qp := c.NIC(0).CreateQP(ib.RC, 6, 0)
		var rtt units.Duration
		t0 := c.Eng.Now()
		c.NIC(0).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { rtt = at.Sub(t0) })
		c.Eng.Run()
		return rtt
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) units.Duration {
		c := topology.Star(model.HWTestbed(), 7, seed)
		qp := c.NIC(0).CreateQP(ib.RC, 6, 0)
		var rtt units.Duration
		c.NIC(0).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { rtt = units.Duration(at) })
		c.Eng.Run()
		return rtt
	}
	if run(1) == run(2) {
		t.Fatal("different seeds gave identical jitter (suspicious)")
	}
}

func TestClusterRNGStable(t *testing.T) {
	c1 := topology.Star(model.HWTestbed(), 7, 5)
	c2 := topology.Star(model.HWTestbed(), 7, 5)
	if c1.RNG("x").Uint64() != c2.RNG("x").Uint64() {
		t.Fatal("cluster RNG derivation not deterministic")
	}
}

// --- Fat-tree generator ----------------------------------------------------

func TestFatTreeShape(t *testing.T) {
	spec := topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 4, Spines: 2, Trunks: 2}
	c, err := topology.FatTree(model.HWTestbed(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NICs) != 12 || len(c.Switches) != 5 {
		t.Fatalf("fat-tree: %d NICs, %d switches", len(c.NICs), len(c.Switches))
	}
	// Leaves: 4 host ports + 2 spines x 2 trunks; spines: 3 leaves x 2 trunks.
	for l := 0; l < 3; l++ {
		if got := c.Switches[l].NumPorts(); got != 8 {
			t.Errorf("leaf %d ports = %d, want 8", l, got)
		}
	}
	for s := 3; s < 5; s++ {
		if got := c.Switches[s].NumPorts(); got != 6 {
			t.Errorf("spine %d ports = %d, want 6", s-3, got)
		}
	}
	if spec.NumHosts() != 12 || spec.LeafOf(7) != 1 || spec.HostNode(2, 3) != 11 {
		t.Error("spec node arithmetic wrong")
	}
}

func TestFatTreeSpecValidation(t *testing.T) {
	bad := []topology.FatTreeSpec{
		{Leaves: 0, HostsPerLeaf: 2, Spines: 1},              // no leaves
		{Leaves: 2, HostsPerLeaf: 0, Spines: 1},              // no hosts
		{Leaves: 3, HostsPerLeaf: 2, Spines: 0},              // 3 leaves need a spine
		{Leaves: 2, HostsPerLeaf: 8, Spines: 4, MaxPorts: 8}, // leaf radix 12 > 8
		{Leaves: 8, HostsPerLeaf: 2, Spines: 2, MaxPorts: 6}, // spine radix 8 > 6
	}
	for i, spec := range bad {
		if _, err := topology.FatTree(model.HWTestbed(), spec, 1); err == nil {
			t.Errorf("spec %d (%+v) accepted, want error", i, spec)
		}
	}
	ok := topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 8, Spines: 4, MaxPorts: 12}
	if _, err := topology.FatTree(model.HWTestbed(), ok, 1); err != nil {
		t.Errorf("valid 12-port spec rejected: %v", err)
	}
	// Cable overrides no wire can run are rejected naming the field.
	zeroBW := model.LinkParams{Propagation: 3 * units.Nanosecond}
	negProp := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: -5 * units.Nanosecond}
	for _, tc := range []struct {
		spec topology.FatTreeSpec
		want string
	}{
		{topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, Spines: 1, HostLink: &zeroBW}, "host_link.bandwidth_bps must be positive, got 0"},
		{topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, Spines: 1, HostLink: &negProp}, "host_link.propagation_ps must not be negative, got -5000"},
		{topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, Spines: 1, TrunkLink: &zeroBW}, "trunk_link.bandwidth_bps must be positive"},
		{topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, TrunkLink: &negProp}, "trunk_link.propagation_ps must not be negative"},
	} {
		if _, err := topology.FatTree(model.HWTestbed(), tc.spec, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %+v: error %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	c, err := topology.FatTree(model.HWTestbed(), topology.FatTreeSpec{
		Leaves: 3, HostsPerLeaf: 2, Spines: 2,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst {
				continue
			}
			sendAndWait(t, c, src, dst)
		}
	}
}

func TestFatTreeTrunkMultiplicityReachable(t *testing.T) {
	// Two leaves, no spine, two parallel trunks: destinations spread across
	// the trunks by id, and every pair still routes.
	c, err := topology.FatTree(model.HWTestbed(), topology.FatTreeSpec{
		Leaves: 2, HostsPerLeaf: 3, Spines: 0, Trunks: 2,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src != dst {
				sendAndWait(t, c, src, dst)
			}
		}
	}
}

// The legacy constructors are wrappers over the fat-tree builder; under the
// jitterless profile a one-leaf fat-tree must time exactly like the Star
// rack and a two-leaf spineless one exactly like TwoTier.
func TestFatTreeLegacyEquivalence(t *testing.T) {
	par := model.OMNeTSim()
	rtt := func(c *topology.Cluster, src, dst int) units.Duration {
		qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
		t0 := c.Eng.Now()
		var d units.Duration
		c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { d = at.Sub(t0) })
		c.Eng.Run()
		return d
	}
	star := rtt(topology.Star(par, 7, 3), 0, 6)
	oneLeaf, err := topology.FatTree(par, topology.FatTreeSpec{Leaves: 1, HostsPerLeaf: 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rtt(oneLeaf, 0, 6); got != star {
		t.Errorf("one-leaf fat-tree RTT %v != star %v", got, star)
	}
	twoTier := rtt(topology.TwoTier(par, 3, 3, 3), 0, 5)
	twoLeaf, err := topology.FatTree(par, topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rtt(twoLeaf, 0, 5); got != twoTier {
		t.Errorf("two-leaf fat-tree RTT %v != two-tier %v", got, twoTier)
	}
}

func TestFatTreePerTierLinks(t *testing.T) {
	par := model.OMNeTSim()
	slow := par.Link
	slow.Propagation = 100 * units.Nanosecond
	base := topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, Spines: 1}
	slowTrunk := base
	slowTrunk.TrunkLink = &slow

	rtt := func(spec topology.FatTreeSpec, src, dst int) units.Duration {
		c, err := topology.FatTree(par, spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
		t0 := c.Eng.Now()
		var d units.Duration
		c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { d = at.Sub(t0) })
		c.Eng.Run()
		return d
	}
	// Intra-leaf paths never touch the trunk: unchanged.
	if a, b := rtt(base, 0, 1), rtt(slowTrunk, 0, 1); a != b {
		t.Errorf("intra-leaf RTT changed with trunk override: %v vs %v", a, b)
	}
	// Cross-leaf round trip crosses two trunk hops each way: +4 x 97 ns.
	fast, slowRTT := rtt(base, 0, 3), rtt(slowTrunk, 0, 3)
	want := 4 * (slow.Propagation - par.Link.Propagation)
	if got := slowRTT - fast; got != want {
		t.Errorf("trunk propagation delta = %v, want %v", got, want)
	}
}

// Trunk arbitration across a real multi-switch fabric: three upstream
// senders push cross-trunk bulk flows plus a fourth small-message flow, so
// trunk egresses arbitrate among several inputs while their downstream
// credit runs short. A head that does not fit the downstream gate is left
// for the gate's release hook, which re-kicks the egress when credit
// returns; if a return ever failed to re-arm a waiting egress, the
// quiescent drain below would hang (messages would never complete) rather
// than finish.
func TestTrunkArbitrationNoStall(t *testing.T) {
	c := topology.TwoTier(model.HWTestbed(), 3, 4, 11)
	type flow struct {
		src, dst int
		payload  units.ByteSize
	}
	flows := []flow{{0, 3, 4096}, {1, 4, 4096}, {2, 5, 4096}, {0, 6, 256}}
	done := make([]int, len(flows))
	for i, f := range flows {
		qp := c.NIC(f.src).CreateQP(ib.RC, ib.NodeID(f.dst), 0)
		i, f := i, f
		var send func()
		send = func() {
			c.NIC(f.src).PostSend(qp, ib.VerbWrite, f.payload, func(units.Time) {
				done[i]++
				if c.Eng.Now() < units.Time(2*units.Millisecond) {
					send()
				}
			})
		}
		// Keep several messages outstanding so trunk arbitration always has
		// multiple eligible inputs (and therefore losing reservations).
		for k := 0; k < 8; k++ {
			send()
		}
	}
	c.Eng.Run() // quiescent drain: hangs the test if any flow stalls
	for i, n := range done {
		if n == 0 {
			t.Errorf("flow %d never completed a message", i)
		}
	}
	if c.Switches[0].ForwardedPackets == 0 || c.Switches[1].ForwardedPackets == 0 {
		t.Error("traffic did not cross both switches")
	}
}
