package experiments

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/rnic"
	"repro/internal/topology"
	"repro/internal/units"
)

// Tenant slicing: resolving a Point's declarative Tenants into the two
// enforcement mechanisms the fabric offers, plus the slicing scenario
// suite. A tenant's promised rate becomes (a) one shared injection-rate
// token bucket installed on every member NIC — the slice is
// non-work-conserving, so delivered <= promised is a checkable guarantee —
// and (b) a VL arbitration weight at every switch egress, proportional to
// the promised shares, so a backlogged tenant cannot starve another
// tenant's VL. Tenant i's traffic rides its effective SL, mapped to VL i
// (ib.SliceSL2VL); see DESIGN.md "Tenant slicing and conformance metrics".

// slicing is a Point's resolved tenant configuration. The zero value (not
// active) leaves the run byte-identical to an unsliced one; owner is
// always full-length so collection can index it unconditionally.
type slicing struct {
	// active gates every behavioral change. A single tenant promised the
	// whole link (or more) is degenerate — no contention to arbitrate, no
	// rate worth capping — and resolves inactive, which is what makes a
	// 100%-slice point reproduce the unsliced goldens exactly.
	active  bool
	sl2vl   ib.SL2VL
	vlarb   *ib.VLArbConfig
	owner   []int                    // per workload group: owning tenant, -1 unowned
	slOf    []ib.SL                  // per workload group: the owning tenant's effective SL
	limiter []*rnic.InjectionLimiter // per tenant: the shared injection bucket
}

// resolveSlicing derives the slicing configuration from the point's tenant
// declarations. It is pure: everything downstream (limiter installation,
// SL tagging, QoS tables) reads the returned struct, so a run with the
// same point resolves identically every time.
func resolveSlicing(p Point, fab model.FabricParams) (slicing, error) {
	slc := slicing{owner: p.tenantOwner()}
	if len(p.Tenants) == 0 {
		return slc, nil
	}
	if len(p.Tenants) == 1 && gbps(p.Tenants[0].PromisedGbps) >= fab.Link.Bandwidth {
		return slc, nil
	}
	slc.active = true
	sls := make([]ib.SL, len(p.Tenants))
	promised := make([]float64, len(p.Tenants))
	high := make([]bool, len(p.Tenants))
	slc.limiter = make([]*rnic.InjectionLimiter, len(p.Tenants))
	for i, t := range p.Tenants {
		sls[i] = p.effectiveSL(i)
		promised[i] = t.PromisedGbps
		high[i] = t.HighPriority
		slc.limiter[i] = rnic.NewInjectionLimiter(gbps(t.PromisedGbps), units.ByteSize(t.BurstBytes))
	}
	var err error
	if slc.sl2vl, err = ib.SliceSL2VL(sls); err != nil {
		return slc, err
	}
	if len(p.Tenants) >= 2 {
		arb, err := ib.SliceVLArb(promised, high)
		if err != nil {
			return slc, err
		}
		slc.vlarb = &arb
	}
	slc.slOf = make([]ib.SL, len(p.Workload))
	for gi := range p.Workload {
		slc.slOf[gi] = p.effectiveSL(slc.owner[gi])
	}
	return slc, nil
}

func gbps(g float64) units.Bandwidth { return units.Bandwidth(g * float64(units.Gbps)) }

// tenantHasLatencyGroup reports whether tenant ti owns a group whose tail
// latency runScenario records as the tenant's — the precondition for
// running its isolation baseline.
func (p Point) tenantHasLatencyGroup(ti int) bool {
	for _, gi := range p.Tenants[ti].Groups {
		if groupKinds[p.Workload[gi].Kind].tail {
			return true
		}
	}
	return false
}

// The slicing scenario suite: an aggressive bulk tenant sharing the fabric
// with a latency-sensitive tenant, swept over slice ratios and fabric
// sizes. The suite demonstrates the SLA the tentpole enforces: the bulk
// tenant's delivered rate conforms to its promise, and the latency
// tenant's tail stays near its same-seed isolation baseline.

// SliceFabrics are the fat-tree sizes of the sliced-incast sweep.
var SliceFabrics = []topology.FatTreeSpec{
	{Leaves: 2, HostsPerLeaf: 5, Spines: 1},
	{Leaves: 3, HostsPerLeaf: 4, Spines: 2},
}

// sliceMixSpec is the fabric of the sliced all-to-all mix.
var sliceMixSpec = topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2}

// slicedPoint builds the canonical two-tenant point: workload group 0 is
// the aggressive bulk tenant, group 1 the latency tenant's probe. 1 KiB
// bulk payloads keep per-packet serialization small next to the probe RTT,
// so the latency slice's guarantee is visible rather than drowned in
// store-and-forward quanta.
func slicedPoint(top topology.Spec, bulk Workload, bulkGbps, latGbps float64) Point {
	return Point{
		Topology: top,
		Workload: append(append(Workload{}, bulk...), Group{Kind: GroupLSG}),
		Tenants: []Tenant{
			{Name: "bulk", PromisedGbps: bulkGbps, Groups: []int{0}},
			{Name: "lat", PromisedGbps: latGbps, HighPriority: true, Groups: []int{1}},
		},
	}
}

// sliceRatios are the promised-rate splits of the sweeps, bulk/lat Gb/s.
var sliceRatios = [][2]float64{{36, 12}, {12, 36}}

func registerSliceSuite() {
	// sliceincast puts the slicing contract under the paper's worst case:
	// an N-to-1 incast by the bulk tenant against a fabric-crossing
	// latency probe, for both slice splits and two fabric sizes.
	incast := Workload{{Kind: GroupBSG, Count: 6, Payload: 1024}}
	var incastVariants []Variant
	for _, r := range sliceRatios {
		incastVariants = append(incastVariants, Variant{
			Name:  fmt.Sprintf("%g/%g", r[0], r[1]),
			Point: slicedPoint(topology.SpecFatTree(SliceFabrics[0]), incast, r[0], r[1]),
		})
	}
	Register(Definition{
		ID:      "sliceincast",
		Title:   "Tenant-sliced incast: bulk conformance and latency-slice interference vs slice ratio and fabric",
		Columns: []string{"slices", "fabric", "bulk_gbps", "bulk_conf", "lat_p99_us", "lat_iso_p99_us", "if_p99_pct"},
		Notes: []string{
			"slices = promised bulk/lat Gb/s; bulk tenant runs a 6-to-1 incast of 1 KiB messages, lat tenant one fabric-crossing LSG",
			"bulk_conf = delivered/promised (<=1 + jitter: the slice is non-work-conserving)",
			"lat_iso_p99_us re-runs the same seed with only the lat tenant started; if_p99_pct is the p99 inflation against it",
		},
		Spec: Spec{
			Sweep: []Axis{
				{Field: AxisVariant, Variants: incastVariants},
				{Field: AxisTopology, Topologies: fatTreeSpecs(SliceFabrics)},
			},
			Collect: []string{"slice_gbps", "slice_conf_max", "slice_if_p99_pct"},
		},
		Reduce: rowReduce(func(pr PointResult) []string { return sliceCells(pr.M) }),
	})

	// slicemix replaces the incast with an all-to-all by the bulk tenant —
	// every host both sends and receives — so the limiter's shared bucket
	// paces many member NICs at once while the latency slice crosses the
	// loaded spine layer.
	mix := Workload{{Kind: GroupAllToAll, Payload: 1024}}
	var mixVariants []Variant
	for _, r := range append(sliceRatios, [2]float64{24, 24}) {
		mixVariants = append(mixVariants, Variant{
			Name:  fmt.Sprintf("%g/%g", r[0], r[1]),
			Point: slicedPoint(topology.SpecFatTree(sliceMixSpec), mix, r[0], r[1]),
		})
	}
	Register(Definition{
		ID:      "slicemix",
		Title:   "Tenant-sliced all-to-all mix: shared-bucket pacing and latency-slice interference vs slice ratio",
		Columns: []string{"slices", "bulk_gbps", "bulk_conf", "lat_p99_us", "lat_iso_p99_us", "if_p99_pct", "fairness"},
		Notes: []string{
			"fabric " + sliceMixSpec.String() + "; bulk tenant runs a shift-pattern all-to-all of 1 KiB messages from every host but the lat tenant's probe host",
			"one token bucket paces the bulk tenant's aggregate across all member NICs, so per-host shares float while the sum conforms",
		},
		Spec: Spec{
			Sweep:   []Axis{{Field: AxisVariant, Variants: mixVariants}},
			Collect: []string{"slice_gbps", "slice_conf_max", "slice_if_p99_pct"},
		},
		Reduce: rowReduce(func(pr PointResult) []string {
			return append(sliceCells(pr.M), pr.M.cell("fairness"))
		}),
	})
}

// sliceCells renders the two-tenant conformance cells: the bulk tenant's
// (slot 0) goodput and conformance, the latency tenant's (slot 1) contended
// and isolated p99, and the worst p99 inflation.
func sliceCells(m Metrics) []string {
	return []string{
		f2(idx(m.slotMeans(tenantGbpsSlots), 0)), f2(idx(m.slotMeans(tenantConfSlots), 0)),
		f2(idx(m.slotMeans(tenantP99Slots), 1)), f2(idx(m.slotMeans(tenantIsoP99Slots), 1)),
		m.cell("slice_if_p99_pct"),
	}
}

// idx is a bounds-tolerant index for reducers: registered layouts assume
// two tenants, but a user-edited spec may drop one.
func idx(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
