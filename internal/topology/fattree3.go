// Three-tier fat-tree partitioning. A three-tier fabric is Pods copies of
// the two-layer pod block (leaves + spines) under a layer of core switches
// every pod's spines connect to; FatTree3 partitions it, then builds it
// with the same builder as every other shape (see fattree.go).
//
// The spine-core links are where the shard partitioner cuts: their
// propagation delay is the conservative lookahead (see internal/sim's
// package comment). To keep results byte-identical for ANY shard count,
// every spine-core link is a cross-shard link.Wire delivering through a
// channel — including at shards=1, where the channels are self-loops. The
// core layer therefore uses the split plain-window credit gate at every
// shard count: its transmitter half (link.CrossSendGate) reserves from the
// same shared credit window as a local BufferGate, but credit returns as
// mailbox messages from the receiver half (link.CrossRecvGate), which is
// the core ingress's one accounting — a core ingress has no BufferGate.
// The frozen-occupancy BufferGate needs same-tick visibility of the
// receiver's buffer, which a positive-latency cut cannot provide, and
// modeling long core cables with explicit FC-update credits is the
// physically honest choice anyway. No two-layer experiment traverses a
// core link, so their behavior is untouched.
package topology

import (
	"fmt"

	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cut is one partition boundary: the spine-core links between a pod and a
// core switch placed on different shards.
type Cut struct {
	Pod       int
	Core      int
	Lookahead units.Duration
}

// PartitionPlan assigns the pods and cores of a three-tier fabric to
// shards, and reports the cuts and the conservative lookahead they admit.
type PartitionPlan struct {
	Shards int
	// PodShard[p] is the shard owning pod p: contiguous pod ranges, so a
	// shard's pods are neighbors and the plan is a pure function of
	// (Pods, Shards).
	PodShard []int
	// CoreShard[k] is the shard owning core switch k (round-robin).
	CoreShard []int
	// Lookahead is the epoch length: the minimum propagation delay over all
	// cut links. With one core-link parameter set it is simply that link's
	// propagation delay — importantly, independent of the shard count.
	Lookahead units.Duration
	// Cuts lists the pod-core boundaries whose endpoints live on different
	// shards (empty at Shards == 1).
	Cuts []Cut
}

// coreLink resolves the spine-core cable parameters: CoreLink, else
// TrunkLink, else the fabric default.
func (s FatTreeSpec) coreLink(par model.FabricParams) model.LinkParams {
	if s.CoreLink != nil {
		return *s.CoreLink
	}
	return resolveLink(par, s.TrunkLink)
}

// Partition cuts a three-tier fabric at pod boundaries. shards must be in
// [1, Pods]; the error names the valid range. A non-positive core-link
// propagation delay is rejected even at shards=1: the core layer always
// routes through the conservative channels, and a zero-lookahead cut admits
// no conservative window.
func Partition(spec FatTreeSpec, shards int, par model.FabricParams) (*PartitionPlan, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Tiers != 3 {
		return nil, fmt.Errorf("topology: only three-tier fat-trees partition (tiers=%d)", spec.Tiers)
	}
	if shards < 1 || shards > spec.Pods {
		return nil, fmt.Errorf("topology: %d shards out of range for %s (valid: 1..%d)", shards, spec, spec.Pods)
	}
	lk := spec.coreLink(par)
	if lk.Propagation <= 0 {
		return nil, fmt.Errorf("topology: core link propagation %v admits no conservative lookahead (must be positive)", lk.Propagation)
	}
	plan := &PartitionPlan{Shards: shards, Lookahead: lk.Propagation}
	for p := 0; p < spec.Pods; p++ {
		plan.PodShard = append(plan.PodShard, p*shards/spec.Pods)
	}
	for k := 0; k < spec.Cores; k++ {
		plan.CoreShard = append(plan.CoreShard, k%shards)
	}
	for p := 0; p < spec.Pods; p++ {
		for k := 0; k < spec.Cores; k++ {
			if plan.PodShard[p] != plan.CoreShard[k] {
				plan.Cuts = append(plan.Cuts, Cut{Pod: p, Core: k, Lookahead: lk.Propagation})
			}
		}
	}
	return plan, nil
}

// FatTree3 builds a three-tier fabric split across shards engines under a
// sim.Coordinator (stored on the returned Cluster; drive the run with
// Cluster.RunUntil). It partitions the spec, then hands the plan to the
// one fat-tree builder (see Cluster.build), whose construction order is a
// pure function of the spec, never of the shard count — which is what
// makes shards=1..Pods produce identical schedules.
func FatTree3(par model.FabricParams, spec FatTreeSpec, seed uint64, shards int) (*Cluster, error) {
	spec = spec.withDefaults()
	plan, err := Partition(spec, shards, par)
	if err != nil {
		return nil, err
	}
	coord, err := sim.NewCoordinator(shards, plan.Lookahead)
	if err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		// Label each shard engine so invariant reports name the shard.
		coord.Shard(i).Eng.SetLabel(fmt.Sprintf("shard%d", i))
	}
	c := &Cluster{
		Eng:    coord.Shard(0).Eng,
		Coord:  coord,
		Params: par,
		root:   rng.New(seed),
	}
	c.build(spec, plan, nil)
	return c, nil
}

// crossLink wires one direction of a core cable: a data channel carrying
// deliveries, a credit channel carrying the FC updates back, the split gate
// across the two, and a cross-shard wire on the sending switch's egress
// port. The channels are created in call order, which fixes their ids.
// Their latency is the core link's propagation, the plan's lookahead, so
// the coordinator always accepts them.
func (c *Cluster) crossLink(lk model.LinkParams,
	src *ibswitch.Switch, srcShard, srcPort int,
	dst *ibswitch.Switch, dstShard, dstPort int) {
	name := fmt.Sprintf("%s.p%d", src.Name(), srcPort)
	channel := func(from, to int) *sim.Chan {
		ch, err := c.Coord.Channel(from, to, lk.Propagation)
		if err != nil {
			panic(fmt.Sprintf("topology: core link %s: %v", name, err))
		}
		return ch
	}
	data := channel(srcShard, dstShard)
	credit := channel(dstShard, srcShard)
	swPar := c.Params.Switch
	sgate := link.NewCrossSendGate(swPar.WindowFor)
	rgate := link.NewCrossRecvGate(c.Coord.Shard(dstShard).Eng, credit, sgate, lk.Propagation+swPar.CreditReturnDelay)
	dst.SetIngress(dstPort, rgate)
	srcEng := c.Coord.Shard(srcShard).Eng
	sgate.SetDiag(srcEng, name)
	rgate.SetName(fmt.Sprintf("%s.p%d:in", dst.Name(), dstPort))
	src.AttachWire(srcPort, link.NewCrossWire(srcEng, name, lk.Bandwidth, lk.Propagation, data, dst.Ingress(dstPort), sgate))
	c.registerWire(srcEng, src.EgressWire(srcPort), rgate, src, srcPort)
}
