package topology_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFabric is one fabric the construction goldens pin.
type goldenFabric struct {
	name  string
	build func() (*topology.Cluster, error)
	big   bool // 512 hosts: the routes golden records a digest, not rows
}

// goldenFabrics lists the nine fabrics both construction goldens build:
// every legacy shape, spineless and spine fabrics with trunks, three-tier
// fabrics with core trunks, and the 512-host fabric at shards 1 and 4.
func goldenFabrics() []goldenFabric {
	par := model.HWTestbed()
	coreLink := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 100 * units.Nanosecond}
	big := topology.FatTreeSpec{Tiers: 3, Pods: 8, Leaves: 8, HostsPerLeaf: 8, Spines: 4, CoreLink: &coreLink}
	fatTree := func(spec topology.FatTreeSpec) func() (*topology.Cluster, error) {
		return func() (*topology.Cluster, error) { return topology.FatTree(par, spec, 1) }
	}
	return []goldenFabric{
		{"star", func() (*topology.Cluster, error) { return topology.Star(par, 7, 1), nil }, false},
		{"twotier", func() (*topology.Cluster, error) { return topology.TwoTier(par, 3, 4, 1), nil }, false},
		{"1x5", fatTree(topology.FatTreeSpec{Leaves: 1, HostsPerLeaf: 5}), false},
		{"2x3 spineless, 2 trunks", fatTree(topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 3, Trunks: 2}), false},
		{"3x3+2s, 2 trunks", fatTree(topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2, Trunks: 2}), false},
		{"2p2x2+1s", fatTree(topology.FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 1}), false},
		{"3p2x2+2s, 3 cores, 2 core trunks", fatTree(topology.FatTreeSpec{Tiers: 3, Pods: 3, Leaves: 2, HostsPerLeaf: 2, Spines: 2, Cores: 3, CoreTrunks: 2}), false},
		{"512 hosts, shards 1", func() (*topology.Cluster, error) { return topology.FatTree3(par, big, 1, 1) }, true},
		{"512 hosts, shards 4", func() (*topology.Cluster, error) { return topology.FatTree3(par, big, 1, 4) }, true},
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

// TestFabricConstructionGolden pins what a fabric's construction order
// decides and no experiment table shows directly: switch names and port
// counts in Cluster.Switches order, the link registry's names and order
// (fault specs address links by name, and random faults permute that
// order), every NIC's RNG stream and the cluster root's state after the
// build (each rng.Split draws from its parent, so one component added or
// moved reseeds every later one). Regenerate testdata/construction.golden
// with -update only after an intentional change to how fabrics are built.
func TestFabricConstructionGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFabrics() {
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
	checkGolden(t, "construction.golden", b.String())
}

// TestFabricRoutesGolden pins every forwarding decision the builder makes:
// for each switch in Cluster.Switches order and each destination node, the
// egress port and the failover ports a downed primary spreads over. The
// experiment goldens cover only the destinations their traffic reaches;
// this covers every (switch, destination) pair. A 512-host fabric is
// recorded as its row count and the SHA-256 of its rows. Regenerate
// testdata/routes.golden with -update only after an intentional change to
// routing.
func TestFabricRoutesGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFabrics() {
		c, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var rows strings.Builder
		n := 0
		for _, sw := range c.Switches {
			for d := range c.NICs {
				port, failover := sw.Route(ib.NodeID(d))
				fmt.Fprintf(&rows, "  %s n%d -> %d %v\n", sw.Name(), d, port, failover)
				n++
			}
		}
		fmt.Fprintf(&b, "== %s\nroutes (%d):", f.name, n)
		if f.big {
			fmt.Fprintf(&b, " sha256 %x\n", sha256.Sum256([]byte(rows.String())))
			continue
		}
		fmt.Fprintf(&b, "\n%s", rows.String())
	}
	checkGolden(t, "routes.golden", b.String())
}
