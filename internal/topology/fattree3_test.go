package topology_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

// tiered returns a small three-tier spec: 2 pods of 2x2+1s under one core.
func tiered() topology.FatTreeSpec {
	return topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1}
}

func TestFatTree3Shape(t *testing.T) {
	spec := tiered()
	c, err := topology.FatTree(model.HWTestbed(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NICs) != 8 || len(c.Switches) != 7 {
		t.Fatalf("three-tier: %d NICs, %d switches, want 8 and 7", len(c.NICs), len(c.Switches))
	}
	if c.Coord == nil || c.Coord.NumShards() != 1 {
		t.Fatal("three-tier build must carry a (single-shard) coordinator")
	}
	if spec.NumHosts() != 8 || spec.TotalLeaves() != 4 {
		t.Errorf("NumHosts=%d TotalLeaves=%d, want 8 and 4", spec.NumHosts(), spec.TotalLeaves())
	}
	if got := spec.String(); got != "2p2x2+1s+1c" {
		t.Errorf("String() = %q", got)
	}
	// pod0.leaf0, pod0.leaf1, pod0.spine0, pod1..., core0.
	wantPorts := []int{3, 3, 3, 3, 3, 3, 2}
	for i, w := range wantPorts {
		if got := c.Switches[i].NumPorts(); got != w {
			t.Errorf("switch %d (%s) ports = %d, want %d", i, c.Switches[i].Name(), got, w)
		}
	}
}

// TestThreeTierSpecValidation is the table-driven satellite: each invalid
// three-tier spec is rejected with an error naming the violated constraint.
func TestThreeTierSpecValidation(t *testing.T) {
	zeroProp := model.HWTestbed().Link
	zeroProp.Propagation = 0
	zeroBW := model.HWTestbed().Link
	zeroBW.Bandwidth = 0
	cases := []struct {
		name string
		spec topology.FatTreeSpec
		want string // error substring
	}{
		{"tiers out of range", topology.FatTreeSpec{Tiers: 4, Leaves: 2, HostsPerLeaf: 2, Spines: 1}, "out of range"},
		{"pods without tiers", topology.FatTreeSpec{Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1}, "require tiers 3"},
		{"core_link without tiers", topology.FatTreeSpec{CoreLink: &zeroProp, Leaves: 2, HostsPerLeaf: 2, Spines: 1}, "require tiers 3"},
		{"one pod", topology.FatTreeSpec{Tiers: 3, Pods: 1, Leaves: 2, HostsPerLeaf: 2, Spines: 1}, "at least two pods"},
		{"spineless pod", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 0}, "at least one spine"},
		{"negative core trunks", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1, CoreTrunks: -1}, "must be positive"},
		{"leaf over budget", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 10, Spines: 4, MaxPorts: 12}, "leaf radix"},
		{"spine over budget", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 10, HostsPerLeaf: 2, Spines: 1, Cores: 4, MaxPorts: 12}, "spine radix"},
		{"core over budget", topology.FatTreeSpec{Tiers: 3, Pods: 8, Leaves: 2, HostsPerLeaf: 2, Spines: 2, MaxPorts: 12}, "core radix"},
		{"core_link without bandwidth", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1, CoreLink: &zeroBW}, "core_link.bandwidth_bps must be positive"},
		{"core_link without propagation", topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1, CoreLink: &zeroProp}, "core_link.propagation_ps must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("spec %+v accepted, want error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := tiered().Validate(); err != nil {
		t.Errorf("valid three-tier spec rejected: %v", err)
	}
}

func TestPartition(t *testing.T) {
	par := model.HWTestbed()
	spec := tiered()
	spec.Pods, spec.Cores = 4, 2

	plan, err := topology.Partition(spec, 2, par)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, 1}; fmt.Sprint(plan.PodShard) != fmt.Sprint(want) {
		t.Errorf("PodShard = %v, want %v", plan.PodShard, want)
	}
	if want := []int{0, 1}; fmt.Sprint(plan.CoreShard) != fmt.Sprint(want) {
		t.Errorf("CoreShard = %v, want %v", plan.CoreShard, want)
	}
	if plan.Lookahead != par.Link.Propagation {
		t.Errorf("Lookahead = %v, want the core link propagation %v", plan.Lookahead, par.Link.Propagation)
	}
	// Pods 0,1 cut against core 1; pods 2,3 against core 0: four cuts.
	if len(plan.Cuts) != 4 {
		t.Errorf("Cuts = %v, want 4 boundaries", plan.Cuts)
	}

	if one, err := topology.Partition(spec, 1, par); err != nil || len(one.Cuts) != 0 {
		t.Errorf("shards=1: err=%v cuts=%v, want clean uncut plan", err, one)
	}
	if _, err := topology.Partition(spec, 5, par); err == nil || !strings.Contains(err.Error(), "valid: 1..4") {
		t.Errorf("shards=5 error %q should name the valid range", err)
	}
	if _, err := topology.Partition(spec, 0, par); err == nil {
		t.Error("shards=0 accepted")
	}
	two := topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 2, Spines: 1}
	if _, err := topology.Partition(two, 2, par); err == nil || !strings.Contains(err.Error(), "three-tier") {
		t.Errorf("two-layer partition error %q should say only three-tier fabrics partition", err)
	}
	// Zero-lookahead rejection: a core link without propagation delay cannot
	// anchor the conservative protocol, even on one shard.
	zeroProp := par.Link
	zeroProp.Propagation = 0
	zspec := spec
	zspec.CoreLink = &zeroProp
	if _, err := topology.Partition(zspec, 1, par); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("zero-propagation core link error %q should mention the lookahead", err)
	}
}

// sendAndWait3 drives a sharded cluster via the coordinator (c.Eng.Run
// would advance only shard 0).
func sendAndWait3(t *testing.T, c *topology.Cluster, src, dst int) {
	t.Helper()
	qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
	done := false
	c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(units.Time) { done = true })
	c.RunUntil(c.Eng.Now().Add(200 * units.Microsecond))
	if !done {
		t.Fatalf("message %d->%d never completed", src, dst)
	}
}

func TestFatTree3AllPairsReachable(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, err := topology.FatTree3(model.HWTestbed(), tiered(), 7, shards)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				if src != dst {
					sendAndWait3(t, c, src, dst)
				}
			}
		}
	}
}

// TestFatTree3ShardEquivalence: every host sends one message to a host in
// another pod; completion timestamps must be identical for every shard
// count and barrier mode.
func TestFatTree3ShardEquivalence(t *testing.T) {
	spec := tiered()
	spec.Pods = 4
	n := spec.NumHosts()
	run := func(shards int, parallel bool) string {
		c, err := topology.FatTree3(model.HWTestbed(), spec, 11, shards)
		if err != nil {
			t.Fatal(err)
		}
		c.Coord.Parallel = parallel
		times := make([]units.Time, n)
		podHosts := spec.Leaves * spec.HostsPerLeaf
		for i := 0; i < n; i++ {
			dst := (i + podHosts) % n
			qp := c.NIC(i).CreateQP(ib.RC, ib.NodeID(dst), 0)
			i := i
			c.NIC(i).PostSend(qp, ib.VerbSend, 4096, func(at units.Time) { times[i] = at })
		}
		c.RunUntil(units.Time(0).Add(1 * units.Millisecond))
		return fmt.Sprint(times)
	}
	ref := run(1, false)
	if strings.Contains(ref, " 0s") || strings.HasPrefix(ref, "[0s") {
		t.Fatalf("reference run left incomplete sends: %s", ref)
	}
	for _, tc := range []struct {
		shards   int
		parallel bool
	}{{2, false}, {2, true}, {4, false}, {4, true}} {
		if got := run(tc.shards, tc.parallel); got != ref {
			t.Errorf("shards=%d parallel=%v diverged:\nref: %s\ngot: %s", tc.shards, tc.parallel, ref, got)
		}
	}
}
