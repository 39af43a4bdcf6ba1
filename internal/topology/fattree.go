// Fat-tree fabric generation (the construction of Solnushkin's "Automated
// Design of Two-Layer Fat-Tree Networks" specialized to the paper's
// hardware): a row of leaf switches with hosts below and a row of spine
// switches above, every leaf connected to every spine by a configurable
// number of parallel trunks — the two-layer block — used once, or copied
// into pods under a layer of core switches (fattree3.go). One builder
// (Cluster.build) wires and routes every shape at every tier count and
// shard count: Star and TwoTier pass it their legacy leaf names, FatTree a
// spec, FatTree3 a spec and a partition plan.
package topology

import (
	"fmt"
	"strconv"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/sim"
)

// FatTreeSpec configures the fabric generator. The JSON form is part of
// the declarative experiment Spec API (see internal/experiments).
type FatTreeSpec struct {
	// Leaves is the number of leaf (ToR) switches.
	Leaves int `json:"leaves"`
	// HostsPerLeaf is the number of hosts below each leaf.
	HostsPerLeaf int `json:"hosts_per_leaf"`
	// Spines is the number of spine switches. Zero builds a degenerate
	// spineless fabric: a single leaf (the star rack), or two leaves joined
	// by one direct trunk (the paper's two-switch setup).
	Spines int `json:"spines,omitempty"`
	// Trunks is the number of parallel cables between each leaf-spine pair
	// (or between the two leaves of a spineless fabric). Defaults to 1.
	Trunks int `json:"trunks,omitempty"`
	// MaxPorts bounds the radix of every switch in the fabric (0 = no
	// bound). The paper's SX6012 has 12 ports; specs exceeding the budget
	// are rejected rather than silently built.
	MaxPorts int `json:"max_ports,omitempty"`
	// HostLink overrides the host-to-leaf cable parameters (nil = the
	// fabric default, par.Link).
	HostLink *model.LinkParams `json:"host_link,omitempty"`
	// TrunkLink overrides the leaf-to-spine (or leaf-to-leaf) cable
	// parameters (nil = the fabric default).
	TrunkLink *model.LinkParams `json:"trunk_link,omitempty"`
	// Tiers selects the fabric depth: 0 (the default) or 2 builds the
	// two-layer fabric above; 3 builds Pods copies of the two-layer block
	// under a layer of core switches (see fattree3.go). Three-tier fabrics
	// are the ones the shard partitioner can cut.
	Tiers int `json:"tiers,omitempty"`
	// Pods is the number of two-layer blocks of a three-tier fabric
	// (required, ≥ 2, when Tiers is 3).
	Pods int `json:"pods,omitempty"`
	// Cores is the number of core switches of a three-tier fabric
	// (default: Spines).
	Cores int `json:"cores,omitempty"`
	// CoreTrunks is the number of parallel cables between each spine-core
	// pair (default: Trunks).
	CoreTrunks int `json:"core_trunks,omitempty"`
	// CoreLink overrides the spine-to-core cable parameters (nil =
	// TrunkLink, else the fabric default). Its propagation delay is the
	// conservative lookahead when the fabric is sharded, so long core
	// cables buy coarse synchronization epochs.
	CoreLink *model.LinkParams `json:"core_link,omitempty"`
}

// withDefaults fills unset optional fields.
func (s FatTreeSpec) withDefaults() FatTreeSpec {
	if s.Trunks == 0 {
		s.Trunks = 1
	}
	if s.Tiers == 3 {
		if s.Cores == 0 {
			s.Cores = s.Spines
		}
		if s.CoreTrunks == 0 {
			s.CoreTrunks = s.Trunks
		}
	}
	return s
}

// uplinks is the number of up-facing ports on each leaf.
func (s FatTreeSpec) uplinks() int {
	if s.Spines > 0 {
		return s.Spines * s.Trunks
	}
	if s.Leaves == 2 {
		return s.Trunks
	}
	return 0
}

// Validate checks structural sanity and the port budget.
func (s FatTreeSpec) Validate() error {
	s = s.withDefaults()
	switch s.Tiers {
	case 0, 2, 3:
	default:
		return fmt.Errorf("topology: fat-tree tiers %d out of range (valid: 2, 3)", s.Tiers)
	}
	if s.Tiers != 3 && (s.Pods != 0 || s.Cores != 0 || s.CoreTrunks != 0 || s.CoreLink != nil) {
		return fmt.Errorf("topology: pods/cores/core_trunks/core_link require tiers 3")
	}
	if s.Leaves < 1 {
		return fmt.Errorf("topology: fat-tree needs at least one leaf, got %d", s.Leaves)
	}
	if s.HostsPerLeaf < 1 {
		return fmt.Errorf("topology: fat-tree needs at least one host per leaf, got %d", s.HostsPerLeaf)
	}
	if s.Spines < 0 || s.Trunks < 1 {
		return fmt.Errorf("topology: fat-tree spine/trunk counts must be non-negative (spines=%d trunks=%d)", s.Spines, s.Trunks)
	}
	if err := validateLink("host_link", s.HostLink); err != nil {
		return err
	}
	if err := validateLink("trunk_link", s.TrunkLink); err != nil {
		return err
	}
	if s.Tiers == 3 {
		return s.validateThreeTier()
	}
	if s.Spines == 0 && s.Leaves > 2 {
		return fmt.Errorf("topology: %d leaves need at least one spine (only 1- and 2-leaf fabrics may be spineless)", s.Leaves)
	}
	if s.MaxPorts > 0 {
		if r := s.HostsPerLeaf + s.uplinks(); r > s.MaxPorts {
			return fmt.Errorf("topology: leaf radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if s.Spines > 0 {
			if r := s.Leaves * s.Trunks; r > s.MaxPorts {
				return fmt.Errorf("topology: spine radix %d exceeds port budget %d", r, s.MaxPorts)
			}
		}
	}
	return nil
}

// validateLink rejects cable parameters no wire can run: a non-positive
// bandwidth or a negative propagation delay. field is the JSON name of the
// override (nil = the fabric default, always valid).
func validateLink(field string, lk *model.LinkParams) error {
	switch {
	case lk == nil:
		return nil
	case lk.Bandwidth <= 0:
		return fmt.Errorf("topology: %s.bandwidth_bps must be positive, got %d", field, int64(lk.Bandwidth))
	case lk.Propagation < 0:
		return fmt.Errorf("topology: %s.propagation_ps must not be negative, got %d", field, int64(lk.Propagation))
	}
	return nil
}

// validateThreeTier checks the pod/core structure; the caller has already
// applied defaults and validated the leaf-layer fields.
func (s FatTreeSpec) validateThreeTier() error {
	if s.Pods < 2 {
		return fmt.Errorf("topology: a three-tier fat-tree needs at least two pods, got %d", s.Pods)
	}
	if s.Spines < 1 {
		return fmt.Errorf("topology: a three-tier fat-tree needs at least one spine per pod, got %d", s.Spines)
	}
	if s.Cores < 1 || s.CoreTrunks < 1 {
		return fmt.Errorf("topology: three-tier core counts must be positive (cores=%d core_trunks=%d)", s.Cores, s.CoreTrunks)
	}
	if err := validateLink("core_link", s.CoreLink); err != nil {
		return err
	}
	if s.CoreLink != nil && s.CoreLink.Propagation <= 0 {
		return fmt.Errorf("topology: core_link.propagation_ps must be positive (it is the conservative lookahead of a sharded run), got %d", int64(s.CoreLink.Propagation))
	}
	if s.MaxPorts > 0 {
		if r := s.HostsPerLeaf + s.Spines*s.Trunks; r > s.MaxPorts {
			return fmt.Errorf("topology: leaf radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if r := s.Leaves*s.Trunks + s.Cores*s.CoreTrunks; r > s.MaxPorts {
			return fmt.Errorf("topology: spine radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if r := s.Pods * s.Spines * s.CoreTrunks; r > s.MaxPorts {
			return fmt.Errorf("topology: core radix %d exceeds port budget %d", r, s.MaxPorts)
		}
	}
	return nil
}

// NumHosts is the total host count of the fabric.
func (s FatTreeSpec) NumHosts() int {
	n := s.Leaves * s.HostsPerLeaf
	if s.Tiers == 3 {
		n *= s.Pods
	}
	return n
}

// TotalLeaves is the fabric-wide leaf count: Leaves per pod times the pod
// count for three-tier fabrics, plain Leaves otherwise.
func (s FatTreeSpec) TotalLeaves() int {
	if s.Tiers == 3 {
		return s.Leaves * s.Pods
	}
	return s.Leaves
}

// HostNode returns the node id of host h (0-based) under leaf l.
func (s FatTreeSpec) HostNode(l, h int) int { return l*s.HostsPerLeaf + h }

// LeafOf returns the leaf a node attaches to.
func (s FatTreeSpec) LeafOf(node int) int { return node / s.HostsPerLeaf }

func (s FatTreeSpec) String() string {
	if s.Tiers == 3 {
		return fmt.Sprintf("%dp%dx%d+%ds+%dc", s.Pods, s.Leaves, s.HostsPerLeaf, s.Spines, s.withDefaults().Cores)
	}
	return fmt.Sprintf("%dx%d+%ds", s.Leaves, s.HostsPerLeaf, s.Spines)
}

// FatTree builds a two-layer fabric with automatically derived
// destination-based routing (or, for Tiers == 3, the three-tier fabric on a
// single shard). Node numbering is leaf-major: host h of (global) leaf l is
// node l*HostsPerLeaf + h.
func FatTree(par model.FabricParams, spec FatTreeSpec, seed uint64) (*Cluster, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Tiers == 3 {
		return FatTree3(par, spec, seed, 1)
	}
	c := newCluster(par, seed)
	c.build(spec, nil, nil)
	return c, nil
}

func resolveLink(par model.FabricParams, override *model.LinkParams) model.LinkParams {
	if override != nil {
		return *override
	}
	return par.Link
}

// legacyLeaf is one leaf of the legacy Star and TwoTier shapes: its
// historical switch name, the label its jitter RNG stream derives from (so
// seeded legacy runs reproduce their streams byte for byte) and its host
// count.
type legacyLeaf struct {
	name, rng string
	hosts     int
}

// build wires a fat-tree into c and derives its routes. It serves every
// shape: the spineless one- and two-leaf racks, two-layer leaf/spine
// fabrics, and, given a partition plan, spec.Pods leaf/spine blocks under
// a layer of cores whose links cross the plan's shards. legacy, when set,
// names the leaves of a spineless rack and sets their host counts in place
// of spec.HostsPerLeaf.
//
// Construction order is part of the determinism contract: every switch
// draws its jitter stream from the cluster root, and each rng.Split
// advances the root, so the order fixes every stream; it also fixes the
// link registry fault specs address by name and the core channels' ids,
// the mailbox's sort key. The order is switches (each pod's leaves, then
// its spines, then the cores), hosts in node order, intra-pod trunks,
// core links, routes — a pure function of the spec, never of the shard
// count.
//
// Port numbering: leaf l uses ports 0..hosts[l]-1 for its hosts (port h =
// local host h) and ports hosts[l]+s*Trunks+t for trunk t toward spine s;
// a spineless two-leaf fabric puts its direct trunks at hosts[l]+t. Spine
// ports are l*Trunks+t down to leaf l, then Leaves*Trunks+k*CoreTrunks+t up
// to core k; core ports are (p*Spines+s)*CoreTrunks+t toward spine s of
// pod p.
//
// Routing is destination-based and deterministic. On the destination's
// own leaf the route is the host port. Any other leaf sends it up by
// destination id modulo its uplinks, spreading destinations across spines
// and trunks without any stateful balancing; a spine in the destination's
// pod reaches its leaf on trunk dst%Trunks, a spine in another pod sends
// it up by destination modulo its core uplinks, and a core reaches the
// destination pod via spine dst%Spines. Because every choice is a pure
// function of the destination, all packets of a flow share one path and
// arrive in order, and a run's schedule is a pure function of (spec,
// seed). Every switch's forwarding table has one entry per host. Each
// modulo-chosen entry also names the contiguous port range it was chosen
// from as its failover range: while the primary is down, new arrivals
// spread over the range's survivors.
func (c *Cluster) build(spec FatTreeSpec, plan *PartitionPlan, legacy []legacyLeaf) {
	hosts := make([]int, spec.Leaves) // below leaf l of every pod
	podHosts := 0
	for l := range hosts {
		hosts[l] = spec.HostsPerLeaf
		if legacy != nil {
			hosts[l] = legacy[l].hosts
		}
		podHosts += hosts[l]
	}
	pods := 1
	podEng := func(int) *sim.Engine { return c.Eng }
	if plan != nil {
		pods = spec.Pods
		podEng = func(p int) *sim.Engine { return c.Coord.Shard(plan.PodShard[p]).Eng }
	}
	hostLink, trunkLink, coreLink := resolveLink(c.Params, spec.HostLink), resolveLink(c.Params, spec.TrunkLink), spec.coreLink(c.Params)
	T, CT := spec.Trunks, spec.CoreTrunks
	uplinks, coreUplinks := spec.uplinks(), spec.Cores*CT

	// Switches.
	newSwitch := func(eng *sim.Engine, name, rngLabel string, ports int) *ibswitch.Switch {
		sw := ibswitch.New(eng, name, c.Params.Switch, ports, pods*podHosts, c.RNG(rngLabel))
		c.Switches = append(c.Switches, sw)
		return sw
	}
	leaves := make([][]*ibswitch.Switch, pods)
	spines := make([][]*ibswitch.Switch, pods)
	for p := range leaves {
		prefix := ""
		if plan != nil {
			prefix = fmt.Sprintf("pod%d.", p)
		}
		for l := range hosts {
			name := prefix + "leaf" + strconv.Itoa(l)
			label := name
			if legacy != nil {
				name, label = legacy[l].name, legacy[l].rng
			}
			leaves[p] = append(leaves[p], newSwitch(podEng(p), name, label, hosts[l]+uplinks))
		}
		for s := 0; s < spec.Spines; s++ {
			name := prefix + "spine" + strconv.Itoa(s)
			spines[p] = append(spines[p], newSwitch(podEng(p), name, name, len(hosts)*T+coreUplinks))
		}
	}
	var cores []*ibswitch.Switch
	if plan != nil {
		for k := 0; k < spec.Cores; k++ {
			name := fmt.Sprintf("core%d", k)
			cores = append(cores, newSwitch(c.Coord.Shard(plan.CoreShard[k]).Eng, name, name, pods*spec.Spines*CT))
		}
	}

	// Hosts, in node order (pod-major, then leaf-major).
	node := 0
	for p := range leaves {
		eng := podEng(p)
		for l, sw := range leaves[p] {
			for h := 0; h < hosts[l]; h++ {
				nic := c.addNIC(eng, node)
				gate := c.ingressGate(eng, sw, h)
				up := link.NewWire(eng, fmt.Sprintf("n%d->%s", node, sw.Name()),
					hostLink.Bandwidth, hostLink.Propagation, sw.Ingress(h), gate)
				nic.Attach(up)
				c.registerWire(eng, up, gate, nil, 0)
				sw.AttachPeer(h, hostLink, nic, link.Unlimited{})
				c.registerWire(eng, sw.EgressWire(h), nil, sw, h)
				node++
			}
		}
	}

	// Intra-pod trunks: local wires, both directions.
	half := func(eng *sim.Engine, a *ibswitch.Switch, pa int, b *ibswitch.Switch, pb int) {
		gate := c.ingressGate(eng, b, pb)
		a.AttachPeer(pa, trunkLink, b.Ingress(pb), gate)
		c.registerWire(eng, a.EgressWire(pa), gate, a, pa)
	}
	trunk := func(eng *sim.Engine, a *ibswitch.Switch, pa int, b *ibswitch.Switch, pb int) {
		half(eng, a, pa, b, pb)
		half(eng, b, pb, a, pa)
	}
	for p := range leaves {
		if spec.Spines == 0 && len(hosts) == 2 {
			for t := 0; t < T; t++ {
				trunk(podEng(p), leaves[p][0], hosts[0]+t, leaves[p][1], hosts[1]+t)
			}
		}
		for l, leaf := range leaves[p] {
			for s, spine := range spines[p] {
				for t := 0; t < T; t++ {
					trunk(podEng(p), leaf, hosts[l]+s*T+t, spine, l*T+t)
				}
			}
		}
	}

	// Core links: cross-shard wires, both directions.
	for p := range spines {
		for s, spine := range spines[p] {
			for k, core := range cores {
				for t := 0; t < CT; t++ {
					sp, cp := len(hosts)*T+k*CT+t, (p*spec.Spines+s)*CT+t
					c.crossLink(coreLink, spine, plan.PodShard[p], sp, core, plan.CoreShard[k], cp)
					c.crossLink(coreLink, core, plan.CoreShard[k], cp, spine, plan.PodShard[p], sp)
				}
			}
		}
	}

	// Routes, for every (switch, destination) pair. A one-port range holds
	// only the primary, so it is registered as no failover group.
	group := func(n int) int {
		if n > 1 {
			return n
		}
		return 0
	}
	upN, downN, coreUpN, coreDownN := group(uplinks), group(T), group(coreUplinks), group(spec.Spines*CT)
	node = 0
	for dp := range leaves {
		for dl := range hosts {
			for dh := 0; dh < hosts[dl]; dh++ {
				d := ib.NodeID(node)
				for p := range leaves {
					for l, leaf := range leaves[p] {
						if p == dp && l == dl {
							leaf.SetRoute(d, dh, 0, 0)
							continue
						}
						leaf.SetRoute(d, hosts[l]+node%uplinks, hosts[l], upN)
					}
					for _, spine := range spines[p] {
						if p == dp {
							spine.SetRoute(d, dl*T+node%T, dl*T, downN)
							continue
						}
						spine.SetRoute(d, len(hosts)*T+node%coreUplinks, len(hosts)*T, coreUpN)
					}
				}
				for _, core := range cores {
					core.SetRoute(d, (dp*spec.Spines+node%spec.Spines)*CT+node%CT, dp*spec.Spines*CT, coreDownN)
				}
				node++
			}
		}
	}
}

// ingressGate builds the BufferGate guarding port i of sw, the receiving end
// of a local link, named after the port, and installs it as the port's
// ingress accounting.
func (c *Cluster) ingressGate(eng *sim.Engine, sw *ibswitch.Switch, i int) *link.BufferGate {
	par := c.Params.Switch
	g := link.NewBufferGate(eng, par.CreditReturnDelay, par.WindowFor)
	g.SetName(fmt.Sprintf("%s.p%d:in", sw.Name(), i))
	sw.SetIngress(i, g)
	return g
}
