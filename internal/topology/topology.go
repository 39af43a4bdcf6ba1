// Package topology assembles clusters out of RNICs, links and switches:
// the back-to-back pair of §VI-A, the single-ToR star of §V (seven hosts,
// one switch), and the two-switch multi-hop setup of §VIII-B.
package topology

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cluster is a wired fabric ready to carry traffic.
type Cluster struct {
	// Eng is the simulation engine — of shard 0 for a sharded build, where
	// callers must advance time through RunUntil (the coordinator) rather
	// than the engine directly.
	Eng *sim.Engine
	// Coord synchronizes the shards of a sharded build; nil for the plain
	// single-engine path.
	Coord    *sim.Coordinator
	Params   model.FabricParams
	NICs     []*rnic.RNIC
	Switches []*ibswitch.Switch
	root     *rng.Source
	// links registers every directed wire by name, in construction order,
	// for the fault controller (see faults.go).
	links     map[string]*faultLink
	linkNames []string
}

// RunUntil advances the fabric to absolute time end: through the shard
// coordinator when the build is sharded, directly on the engine otherwise.
func (c *Cluster) RunUntil(end units.Time) {
	if c.Coord != nil {
		c.Coord.RunUntil(end)
		return
	}
	c.Eng.RunUntil(end)
}

// SetInterrupt installs an external abort check on the fabric's engine (or
// every shard engine plus the coordinator's barriers, for a sharded build).
// When the check fires, RunUntil returns early and the cluster must be
// discarded — see sim.Engine.SetInterrupt. Interrupted reports whether
// that happened.
func (c *Cluster) SetInterrupt(f func() bool) {
	if c.Coord != nil {
		c.Coord.SetInterrupt(f)
		return
	}
	c.Eng.SetInterrupt(f)
}

// Interrupted reports whether the last RunUntil was aborted by the check
// installed with SetInterrupt.
func (c *Cluster) Interrupted() bool {
	if c.Coord != nil {
		return c.Coord.Aborted()
	}
	return c.Eng.Aborted()
}

// RNG derives a deterministic random stream for a cluster component.
func (c *Cluster) RNG(label string) *rng.Source { return c.root.Split(label) }

// NIC returns the RNIC of node i.
func (c *Cluster) NIC(i int) *rnic.RNIC { return c.NICs[i] }

// SetSL2VL installs the mapping fabric-wide (every switch and RNIC), the
// way a subnet manager would. A table that reaches a higher VL grows every
// switch port and credit gate to its VLs (see ibswitch.Switch.SetSL2VL), so
// install it before traffic starts.
func (c *Cluster) SetSL2VL(t ib.SL2VL) {
	for _, sw := range c.Switches {
		sw.SetSL2VL(t)
	}
	for _, n := range c.NICs {
		n.SetSL2VL(t)
	}
}

// SetPolicy sets the scheduling policy on every switch.
func (c *Cluster) SetPolicy(p ibswitch.Policy) {
	for _, sw := range c.Switches {
		sw.SetPolicy(p)
	}
}

// SetVLArb installs VL arbitration tables on every switch.
func (c *Cluster) SetVLArb(cfg ib.VLArbConfig) error {
	for _, sw := range c.Switches {
		if err := sw.SetVLArb(cfg); err != nil {
			return err
		}
	}
	return nil
}

// SetVLRateLimit caps a VL's bandwidth on every switch (extension;
// see ibswitch.SetVLRateLimit).
func (c *Cluster) SetVLRateLimit(vl ib.VL, rate units.Bandwidth, burst units.ByteSize) {
	for _, sw := range c.Switches {
		sw.SetVLRateLimit(vl, rate, burst)
	}
}

func newCluster(par model.FabricParams, seed uint64) *Cluster {
	return &Cluster{
		Eng:    sim.New(),
		Params: par,
		root:   rng.New(seed),
	}
}

// addNIC creates node i's RNIC on a shard engine. The RNG label depends
// only on the node id, so shard placement never shifts a stream.
func (c *Cluster) addNIC(eng *sim.Engine, i int) *rnic.RNIC {
	n := rnic.New(eng, ib.NodeID(i), c.Params.NIC, c.RNG(fmt.Sprintf("nic%d", i)))
	c.NICs = append(c.NICs, n)
	return n
}

// BackToBack connects two RNICs with a cable and no switch (§VI-A).
func BackToBack(par model.FabricParams, seed uint64) *Cluster {
	c := newCluster(par, seed)
	a := c.addNIC(c.Eng, 0)
	b := c.addNIC(c.Eng, 1)
	// RNIC receive paths never back-pressure (see model.NICParams).
	ab := link.NewWire(c.Eng, "a->b", par.Link.Bandwidth, par.Link.Propagation, b, link.Unlimited{})
	ba := link.NewWire(c.Eng, "b->a", par.Link.Bandwidth, par.Link.Propagation, a, link.Unlimited{})
	a.Attach(ab)
	b.Attach(ba)
	c.registerWire(c.Eng, ab, nil, nil, 0)
	c.registerWire(c.Eng, ba, nil, nil, 0)
	return c
}

// Star connects n hosts to one ToR switch (§V: the paper uses n = 7, with
// node n-1 conventionally the destination server). It is the one-leaf,
// spineless special case of the fat-tree builder, with the rack's
// historical switch name and RNG label so seeded runs reproduce exactly.
func Star(par model.FabricParams, n int, seed uint64) *Cluster {
	c := newCluster(par, seed)
	c.build(FatTreeSpec{Leaves: 1, Trunks: 1}, nil, []legacyLeaf{{"tor", "switch", n}})
	return c
}

// TwoTier builds the multi-hop topology of §VIII-B: `up` hosts attach to
// the upstream switch, `down` hosts to the downstream switch, and the two
// switches connect with one cable. Node numbering: upstream hosts first,
// then downstream hosts; the destination server of the paper's experiment
// is the last downstream node. It is the two-leaf, spineless case of the
// fat-tree builder, with the legacy switch names and RNG labels.
func TwoTier(par model.FabricParams, up, down int, seed uint64) *Cluster {
	c := newCluster(par, seed)
	c.build(FatTreeSpec{Leaves: 2, Trunks: 1}, nil, []legacyLeaf{{"up", "switch-up", up}, {"down", "switch-down", down}})
	return c
}
