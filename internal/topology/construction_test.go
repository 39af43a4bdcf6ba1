package topology_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFabricConstructionGolden pins what a fabric's construction order
// decides and no experiment table shows directly: switch names and port
// counts in Cluster.Switches order, the link registry's names and order
// (fault specs address links by name, and random faults permute that
// order), every NIC's RNG stream and the cluster root's state after the
// build (each rng.Split draws from its parent, so one component added or
// moved reseeds every later one). Regenerate testdata/construction.golden
// with -update only after an intentional change to how fabrics are built.
func TestFabricConstructionGolden(t *testing.T) {
	par := model.HWTestbed()
	coreLink := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 100 * units.Nanosecond}
	big := topology.FatTreeSpec{Tiers: 3, Pods: 8, Leaves: 8, HostsPerLeaf: 8, Spines: 4, CoreLink: &coreLink}
	fatTree := func(spec topology.FatTreeSpec) func() (*topology.Cluster, error) {
		return func() (*topology.Cluster, error) { return topology.FatTree(par, spec, 1) }
	}
	fabrics := []struct {
		name  string
		build func() (*topology.Cluster, error)
	}{
		{"star", func() (*topology.Cluster, error) { return topology.Star(par, 7, 1), nil }},
		{"twotier", func() (*topology.Cluster, error) { return topology.TwoTier(par, 3, 4, 1), nil }},
		{"1x5", fatTree(topology.FatTreeSpec{Leaves: 1, HostsPerLeaf: 5})},
		{"2x3 spineless, 2 trunks", fatTree(topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 3, Trunks: 2})},
		{"3x3+2s, 2 trunks", fatTree(topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2, Trunks: 2})},
		{"2p2x2+1s", fatTree(topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1})},
		{"3p2x2+2s, 3 cores, 2 core trunks", fatTree(topology.FatTreeSpec{Tiers: 3, Pods: 3, Leaves: 2, HostsPerLeaf: 2, Spines: 2, Cores: 3, CoreTrunks: 2})},
		{"512 hosts, shards 1", func() (*topology.Cluster, error) { return topology.FatTree3(par, big, 1, 1) }},
		{"512 hosts, shards 4", func() (*topology.Cluster, error) { return topology.FatTree3(par, big, 1, 4) }},
	}
	var b strings.Builder
	for _, f := range fabrics {
		c, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&b, "== %s\nswitches (%d):\n", f.name, len(c.Switches))
		for _, sw := range c.Switches {
			fmt.Fprintf(&b, "  %s ports=%d\n", sw.Name(), sw.NumPorts())
		}
		fmt.Fprintf(&b, "links (%d):\n", len(c.LinkNames()))
		for _, name := range c.LinkNames() {
			fmt.Fprintf(&b, "  %s\n", name)
		}
		fmt.Fprintf(&b, "nic draws (%d):\n", len(c.NICs))
		for i, nic := range c.NICs {
			fmt.Fprintf(&b, "  nic%d %016x\n", i, nic.SplitRNG("construction-golden").Uint64())
		}
		fmt.Fprintf(&b, "root draw: %016x\n", c.RNG("construction-golden").Uint64())
	}
	got := b.String()

	path := filepath.Join("testdata", "construction.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("fabric construction diverged from %s (regenerate with -update if the change is intentional)", path)
	}
}
