package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file defines the declarative experiment Spec: a serializable
// description of a parameter sweep. A Spec is a base Point (fabric profile,
// topology, scheduling policy, QoS setup and a Workload of traffic groups),
// a list of Sweep axes whose cross product enumerates the grid, and a
// Collect block naming the reduced metrics. One generic engine (sweep.go)
// executes any Spec; the per-figure registry entries (figures.go,
// incast.go, extensions.go) are Specs plus a table layout, and
// user-authored JSON specs run through the same engine via
// `ibsim run -spec` without recompiling.
//
// Everything in a Spec is plain data: JSON round-trips are a fixed point
// (Marshal ∘ Unmarshal ∘ Marshal = Marshal), and loading a spec from JSON
// changes nothing about the determinism contract — every run still owns a
// sealed engine and RNG derived from (configuration, seed).

// Group kinds.
const (
	// GroupBSG is the paper's bandwidth-sensitive generator: Count
	// open-loop bulk senders converging on the drain port (or Dst).
	GroupBSG = "bsg"
	// GroupLSG is the latency probe: a closed-loop 64 B RPerf session
	// from the probe slot to the drain port.
	GroupLSG = "lsg"
	// GroupPretend is the §VIII-C QoS gamer: bulk data as small batched
	// messages on the latency SL, from the last bulk-source slot.
	GroupPretend = "pretend"
	// GroupRPerf is a raw RPerf session over an otherwise-idle fabric
	// (the Fig. 4 measurement), reported in nanoseconds.
	GroupRPerf = "rperf"
	// GroupPerftest is the Perftest-style ping-pong baseline (Fig. 6).
	GroupPerftest = "perftest"
	// GroupQperf is the Qperf-style WRITE ping-pong baseline (Fig. 6);
	// it reports only a mean, as the real tool does.
	GroupQperf = "qperf"
	// GroupAllToAll is the shift-pattern all-to-all: Count cross-leaf
	// rounds (0 = Leaves-1) in which every host sends to the host Count
	// leaves over. Requires a fat-tree topology.
	GroupAllToAll = "alltoall"
	// GroupOpenBSG is the open-loop bulk group: Count sources whose sends
	// are driven by an arrival process (see Arrival) instead of a
	// completion loop, measuring per-message sojourn (arrival→completion)
	// and delivered goodput. Requires an arrival block.
	GroupOpenBSG = "openbsg"
	// GroupOpenLSG is the open-loop latency flavor: one source (the probe
	// slot, or Src), two-sided SENDs, payload defaulting to 64 B.
	GroupOpenLSG = "openlsg"
)

// Arrival process kinds (open-loop groups). The names mirror
// workload.Poisson/Fixed/Trace; the spec layer keeps its own constants so
// the JSON schema is defined here, next to its validation.
const (
	ArrivalPoisson = "poisson"
	ArrivalFixed   = "fixed"
	ArrivalTrace   = "trace"
)

func arrivalKinds() []string {
	return []string{ArrivalFixed, ArrivalPoisson, ArrivalTrace}
}

// Arrival describes an open-loop group's arrival process. The schedule it
// generates is a pure function of (seed, group index): it draws from the
// sealed stream rng.New(seed).Split("arrival:<group-index>"), so it is
// byte-identical across shard counts and barrier modes (see
// DESIGN.md "Open-loop workloads").
type Arrival struct {
	// Kind is poisson, fixed or trace.
	Kind string `json:"kind"`
	// RateMps is the arrival rate in messages per second (poisson, fixed).
	// A load sweep axis (AxisLoad) overwrites it per grid point.
	RateMps float64 `json:"rate_mps,omitempty"`
	// TraceUs lists explicit arrival offsets in microseconds from run
	// start, sorted and non-negative (trace only).
	TraceUs []float64 `json:"trace,omitempty"`
}

// Group is one traffic group of a workload.
type Group struct {
	// Kind selects the generator type (see the Group* constants).
	Kind string `json:"kind"`
	// Count is the number of bulk senders (bsg), open-loop sources
	// (openbsg, default 1) or cross-leaf shift rounds (alltoall, 0 =
	// Leaves-1). Ignored by the other kinds.
	Count int `json:"count,omitempty"`
	// Payload is the message size in bytes. Defaults to 64 for lsg, rperf
	// and openlsg; required for bsg, alltoall, perftest, qperf and
	// openbsg; fixed (256, batched) for pretend.
	Payload int64 `json:"payload,omitempty"`
	// SL tags the group's traffic (the dedicated-QoS experiments put
	// latency traffic on SL1).
	SL uint8 `json:"sl,omitempty"`
	// Src overrides the group's source node (lsg, openlsg, rperf,
	// perftest, qperf, pretend; default: the topology's probe slot, node 0
	// for the measurement tools, the last bulk-source slot for pretend).
	// The bulk kinds (bsg, openbsg, alltoall) send from their own source
	// pattern and reject it.
	Src *int `json:"src,omitempty"`
	// Dst overrides the group's destination node (default: the
	// topology's drain port). A latency probe re-aimed at another port
	// is how the cross-spine experiment shows congestion is port-local.
	// alltoall sends to a shifted host and rejects it.
	Dst *int `json:"dst,omitempty"`
	// MsgCostNs overrides the per-message RNIC engine cost in
	// nanoseconds to model batched posting (read by bsg, openbsg and
	// openlsg; 0 = NIC default).
	MsgCostNs int64 `json:"msg_cost_ns,omitempty"`
	// Arrival drives an open-loop group (openbsg, openlsg): sends follow
	// this arrival process instead of a completion loop. Required for the
	// open kinds, rejected on every other kind.
	Arrival *Arrival `json:"arrival,omitempty"`
}

// validateArrival checks the group's arrival block: required (and well
// formed) for the open-loop kinds, rejected everywhere else. Errors name
// the offending field.
func (g Group) validateArrival(gp string) error {
	if !groupKinds[g.Kind].open {
		if g.Arrival != nil {
			return fmt.Errorf("spec: %s.arrival is only valid for the open-loop kinds (%s, %s), not %q",
				gp, GroupOpenBSG, GroupOpenLSG, g.Kind)
		}
		return nil
	}
	a := g.Arrival
	if a == nil {
		return fmt.Errorf("spec: %s.arrival is required for kind %q", gp, g.Kind)
	}
	ap := gp + ".arrival"
	switch a.Kind {
	case ArrivalPoisson, ArrivalFixed:
		if a.RateMps <= 0 {
			return fmt.Errorf("spec: %s.rate_mps must be positive for kind %q, got %g", ap, a.Kind, a.RateMps)
		}
		if len(a.TraceUs) > 0 {
			return fmt.Errorf("spec: %s.trace is only valid for kind %q, not %q", ap, ArrivalTrace, a.Kind)
		}
	case ArrivalTrace:
		if len(a.TraceUs) == 0 {
			return fmt.Errorf("spec: %s.trace must list at least one arrival offset for kind %q", ap, ArrivalTrace)
		}
		for i, us := range a.TraceUs {
			if us < 0 {
				return fmt.Errorf("spec: %s.trace[%d] must be non-negative, got %g", ap, i, us)
			}
			if i > 0 && us < a.TraceUs[i-1] {
				return fmt.Errorf("spec: %s.trace[%d] (%g) is before trace[%d] (%g): the trace must be sorted",
					ap, i, us, i-1, a.TraceUs[i-1])
			}
		}
	default:
		return fmt.Errorf("spec: %s.kind %q unknown (valid: %s)", ap, a.Kind, strings.Join(arrivalKinds(), ", "))
	}
	return nil
}

// Workload is an ordered list of traffic groups. Order matters and is part
// of the determinism contract: groups are constructed and started in list
// order, so two specs with the same groups in the same order schedule
// identical event sequences.
type Workload []Group

// QoS setups.
const (
	// QoSShared is the default: every SL maps to VL0.
	QoSShared = ""
	// QoSDedicated is the paper's §VIII-C setup: SL1 maps to
	// high-priority VL1 with the calibrated arbitration weights, and the
	// scheduling policy defaults to vlarb.
	QoSDedicated = "dedicated"
)

// Point is one fully-specified scenario: a fabric, a switch configuration
// and a workload. It is the unit the sweep engine runs per (point, seed)
// job, and the unit a sweep axis perturbs.
type Point struct {
	// Profile selects the calibrated parameter set: "hw" (default) or
	// "sim" (see model.Profile).
	Profile string `json:"profile,omitempty"`
	// Topology is the fabric shape.
	Topology topology.Spec `json:"topology"`
	// Policy is the switch scheduling policy: fcfs (default), rr, vlarb
	// or spf.
	Policy string `json:"policy,omitempty"`
	// QoS selects the SL-to-VL setup: "" (shared) or "dedicated".
	QoS string `json:"qos,omitempty"`
	// VL1RateLimitGbps caps VL1's switch bandwidth (0 = unlimited), the
	// rate-limit extension experiment.
	VL1RateLimitGbps float64 `json:"vl1_rate_limit_gbps,omitempty"`
	// Shards splits the run across per-shard engines synchronized by the
	// conservative protocol (0 or 1 = the plain single-engine path). Only
	// three-tier fat-trees can be cut, at pod granularity; results are
	// byte-identical for every valid value (see DESIGN.md "Sharded
	// execution").
	Shards int `json:"shards,omitempty"`
	// Workload is the ordered list of traffic groups.
	Workload Workload `json:"workload"`
	// Tenants optionally slices the fabric between the workload groups:
	// every group is owned by exactly one tenant, each tenant rides its own
	// VL with arbitration weights derived from the promised rates, and a
	// shared token bucket caps each tenant's aggregate injection at its
	// promised rate (see DESIGN.md "Tenant slicing and conformance
	// metrics"). Empty = no slicing.
	Tenants []Tenant `json:"tenants,omitempty"`
	// Faults optionally arms RC transport reliability and a deterministic
	// fault schedule — link flaps, packet loss, degraded-rate intervals
	// (see DESIGN.md "Fault injection and transport reliability"). Nil = a
	// fault-free run with reliability off (the default fast path).
	Faults *Faults `json:"faults,omitempty"`
}

// Tenant is one slice of the fabric: a promised aggregate rate, the
// workload groups that belong to it, and how its traffic is tagged.
type Tenant struct {
	// Name labels the tenant in tables and errors.
	Name string `json:"name"`
	// PromisedGbps is the tenant's promised aggregate injection rate in
	// Gb/s, accounted at wire size (headers included). It seeds both the
	// injection token bucket and the tenant's VLArb weight.
	PromisedGbps float64 `json:"promised_gbps"`
	// BurstBytes sizes the injection bucket's burst allowance (0 = one
	// maximum-size packet, the minimum workable burst).
	BurstBytes int64 `json:"burst_bytes,omitempty"`
	// SL is the service level the tenant's traffic is (re)tagged with;
	// 0 means the default assignment, which is the tenant's index. Each
	// tenant's effective SL must be distinct.
	SL uint8 `json:"sl,omitempty"`
	// HighPriority puts the tenant's VL in the high-priority arbitration
	// table — the latency-tenant setting, mirroring the paper's dedicated
	// SL configuration.
	HighPriority bool `json:"high_priority,omitempty"`
	// Groups lists the indices into Workload owned by this tenant. Every
	// workload group must be owned by exactly one tenant.
	Groups []int `json:"groups"`
}

// effectiveSL is the SL tenant i's traffic is tagged with: the declared SL,
// or the tenant index when unset.
func (p Point) effectiveSL(i int) ib.SL {
	if p.Tenants[i].SL != 0 {
		return ib.SL(p.Tenants[i].SL)
	}
	return ib.SL(i)
}

// Sweep axis fields.
const (
	// AxisPayload sweeps the payload of every payload-bearing group (the
	// kinds whose groupKinds entry sets payloadAxis).
	AxisPayload = "payload"
	// AxisBSGs sweeps the sender count of every bsg group.
	AxisBSGs = "bsgs"
	// AxisPolicy sweeps the scheduling policy.
	AxisPolicy = "policy"
	// AxisTopology sweeps the fabric shape.
	AxisTopology = "topology"
	// AxisProfile sweeps the parameter profile.
	AxisProfile = "profile"
	// AxisVariant replaces the whole base point per value: the escape
	// hatch for heterogeneous sweeps (the four QoS setups of Fig. 12).
	// A variant axis must come first.
	AxisVariant = "variant"
	// AxisLoad sweeps the offered load of every open-loop group as a
	// fraction of the bottleneck wire rate: each value rewrites the
	// groups' arrival rate_mps so their combined offered *wire* bytes
	// (payload + per-segment headers) equal load × the profile's link
	// bandwidth. Requires at least one open-loop group in the point.
	AxisLoad = "load"
)

// Variant is one named point of a variant axis.
type Variant struct {
	Name  string `json:"name"`
	Point Point  `json:"point"`
}

// Axis is one sweep dimension: a field name plus the value list matching
// that field. Exactly one value list must be populated.
type Axis struct {
	Field      string          `json:"field"`
	Payloads   []int64         `json:"payloads,omitempty"`
	Counts     []int           `json:"counts,omitempty"`
	Policies   []string        `json:"policies,omitempty"`
	Topologies []topology.Spec `json:"topologies,omitempty"`
	Profiles   []string        `json:"profiles,omitempty"`
	Variants   []Variant       `json:"variants,omitempty"`
	Loads      []float64       `json:"loads,omitempty"`
}

// Len is the number of values along the axis.
func (a Axis) Len() int {
	if k, ok := axisKinds[a.Field]; ok {
		return k.len(a)
	}
	return 0
}

// Spec is a complete declarative experiment: base point, sweep axes, and
// the metrics to collect. See the package comment at the top of this file.
type Spec struct {
	// ID and Title name the experiment in tables and sinks.
	ID    string   `json:"id,omitempty"`
	Title string   `json:"title,omitempty"`
	Notes []string `json:"notes,omitempty"`
	// Base is the point every axis perturbs. It may be omitted only when
	// the first sweep axis is a variant axis (which supplies whole
	// points).
	Base *Point `json:"base,omitempty"`
	// Sweep lists the axes, outermost first; their cross product is the
	// grid, enumerated first-axis-major.
	Sweep []Axis `json:"sweep,omitempty"`
	// Collect names the reduced metrics (see MetricNames) that become
	// the generic table's value columns, in order.
	Collect []string `json:"collect"`
}

// Validate checks the whole spec; errors name the offending field so a
// hand-authored JSON spec fails with a pointer into itself, not a zero
// value.
func (s Spec) Validate() error {
	hasVariant := len(s.Sweep) > 0 && s.Sweep[0].Field == AxisVariant
	if s.Base == nil && !hasVariant {
		return fmt.Errorf("spec: base is required unless the first sweep axis is a variant axis")
	}
	if s.Base != nil {
		if err := s.Base.validate("base"); err != nil {
			return err
		}
	}
	for i, ax := range s.Sweep {
		path := fmt.Sprintf("sweep[%d]", i)
		if err := ax.validate(path); err != nil {
			return err
		}
		if ax.Field == AxisVariant && i != 0 {
			return fmt.Errorf("spec: %s: a variant axis must be the first axis", path)
		}
	}
	if len(s.Collect) == 0 {
		return fmt.Errorf("spec: collect must name at least one metric (valid: %s)",
			strings.Join(MetricNames(), ", "))
	}
	for i, name := range s.Collect {
		if _, ok := metricTable[name]; !ok {
			return fmt.Errorf("spec: collect[%d] metric %q unknown (valid: %s)",
				i, name, strings.Join(MetricNames(), ", "))
		}
	}
	return nil
}

func (a Axis) validate(path string) error {
	k, ok := axisKinds[a.Field]
	if !ok {
		return fmt.Errorf("spec: %s.field %q unknown (valid: %s)", path, a.Field, strings.Join(sortedKeys(axisKinds), ", "))
	}
	if k.len(a) == 0 {
		return fmt.Errorf("spec: %s: field %q needs a non-empty %s list", path, a.Field, k.list)
	}
	for _, f := range sortedKeys(axisKinds) {
		if other := axisKinds[f]; f != a.Field && other.len(a) > 0 {
			return fmt.Errorf("spec: %s: field is %q but a %s list is set", path, a.Field, other.list)
		}
	}
	for i := range k.len(a) {
		if err := k.check(a, i, fmt.Sprintf("%s.%s[%d]", path, k.list, i)); err != nil {
			return err
		}
	}
	return nil
}

func (p Point) validate(path string) error {
	if _, err := model.Profile(p.Profile); err != nil {
		return fmt.Errorf("spec: %s.profile: %w", path, err)
	}
	if err := p.Topology.Validate(); err != nil {
		return fmt.Errorf("spec: %s.topology: %w", path, err)
	}
	if _, err := ibswitch.ParsePolicy(p.Policy); err != nil {
		return fmt.Errorf("spec: %s.policy: %w", path, err)
	}
	if p.QoS != QoSShared && p.QoS != QoSDedicated {
		return fmt.Errorf("spec: %s.qos %q unknown (valid: %q, %q)", path, p.QoS, QoSShared, QoSDedicated)
	}
	if p.VL1RateLimitGbps < 0 {
		return fmt.Errorf("spec: %s.vl1_rate_limit_gbps must be non-negative, got %g", path, p.VL1RateLimitGbps)
	}
	if p.Shards < 0 {
		return fmt.Errorf("spec: %s.shards must be non-negative, got %d", path, p.Shards)
	}
	if p.Shards > 1 {
		ft := p.Topology.FatTree
		if p.Topology.Kind != topology.KindFatTree || ft == nil || ft.Tiers != 3 || p.Shards > ft.Pods {
			return fmt.Errorf("spec: %s.shards %d out of range for topology %s (valid: %s)",
				path, p.Shards, p.Topology.Label(), p.Topology.ShardRange())
		}
	}
	if len(p.Workload) == 0 {
		return fmt.Errorf("spec: %s.workload must list at least one traffic group", path)
	}
	for i, g := range p.Workload {
		gp := fmt.Sprintf("%s.workload[%d]", path, i)
		k, ok := groupKinds[g.Kind]
		if !ok {
			return fmt.Errorf("spec: %s.kind %q unknown (valid: %s)", gp, g.Kind, strings.Join(sortedKeys(groupKinds), ", "))
		}
		if k.fatTree && p.Topology.Kind != topology.KindFatTree {
			return fmt.Errorf("spec: %s: kind %q requires a fattree topology, got %q", gp, g.Kind, p.Topology.Kind)
		}
		if k.payload == 0 && g.Payload <= 0 {
			return fmt.Errorf("spec: %s.payload must be positive for kind %q, got %d", gp, g.Kind, g.Payload)
		}
		if k.bulk() && g.Src != nil {
			return fmt.Errorf("spec: %s.src is not valid for kind %q: it sends from its own source pattern", gp, g.Kind)
		}
		if k.src == fromEveryHost && g.Dst != nil {
			return fmt.Errorf("spec: %s.dst is not valid for kind %q: every host sends to a shifted host", gp, g.Kind)
		}
		if err := g.validateArrival(gp); err != nil {
			return err
		}
		if g.Count < 0 {
			return fmt.Errorf("spec: %s.count must be non-negative, got %d", gp, g.Count)
		}
		if g.Payload < 0 {
			return fmt.Errorf("spec: %s.payload must be non-negative, got %d", gp, g.Payload)
		}
		hosts := p.Topology.NumHosts()
		if g.Src != nil && (*g.Src < 0 || *g.Src >= hosts) {
			return fmt.Errorf("spec: %s.src %d out of range [0, %d)", gp, *g.Src, hosts)
		}
		if g.Dst != nil && (*g.Dst < 0 || *g.Dst >= hosts) {
			return fmt.Errorf("spec: %s.dst %d out of range [0, %d)", gp, *g.Dst, hosts)
		}
	}
	if p.Faults != nil {
		// Ranges only: link-name existence needs the built fabric, so it is
		// checked at install time with the registry in hand.
		if err := p.Faults.validate(path + ".faults"); err != nil {
			return err
		}
	}
	return p.validateTenants(path)
}

func (p Point) validateTenants(path string) error {
	if len(p.Tenants) == 0 {
		return nil
	}
	if p.QoS != QoSShared {
		return fmt.Errorf("spec: %s.tenants: slicing derives its own SL-to-VL setup and cannot combine with qos %q", path, p.QoS)
	}
	if len(p.Tenants) > ib.NumVLs {
		return fmt.Errorf("spec: %s.tenants: %d tenants exceed the %d virtual lanes", path, len(p.Tenants), ib.NumVLs)
	}
	names := map[string]bool{}
	sls := map[ib.SL]int{}
	owner := make([]int, len(p.Workload))
	for i := range owner {
		owner[i] = -1
	}
	for i, t := range p.Tenants {
		tp := fmt.Sprintf("%s.tenants[%d]", path, i)
		if t.Name == "" {
			return fmt.Errorf("spec: %s.name is required", tp)
		}
		if names[t.Name] {
			return fmt.Errorf("spec: %s.name %q appears twice", tp, t.Name)
		}
		names[t.Name] = true
		if t.PromisedGbps <= 0 {
			return fmt.Errorf("spec: %s.promised_gbps must be positive, got %g", tp, t.PromisedGbps)
		}
		if t.BurstBytes < 0 {
			return fmt.Errorf("spec: %s.burst_bytes must be non-negative, got %d", tp, t.BurstBytes)
		}
		if t.SL > uint8(ib.MaxSL) {
			return fmt.Errorf("spec: %s.sl %d exceeds max %d", tp, t.SL, ib.MaxSL)
		}
		sl := p.effectiveSL(i)
		if j, dup := sls[sl]; dup {
			return fmt.Errorf("spec: %s effective SL%d collides with tenants[%d] (0 defaults to the tenant index)", tp, sl, j)
		}
		sls[sl] = i
		if len(t.Groups) == 0 {
			return fmt.Errorf("spec: %s.groups must list at least one workload group", tp)
		}
		for _, gi := range t.Groups {
			if gi < 0 || gi >= len(p.Workload) {
				return fmt.Errorf("spec: %s.groups references workload[%d], out of range [0, %d)", tp, gi, len(p.Workload))
			}
			if owner[gi] >= 0 {
				return fmt.Errorf("spec: %s.groups: workload[%d] already owned by tenants[%d]", tp, gi, owner[gi])
			}
			owner[gi] = i
		}
	}
	for gi, own := range owner {
		if own < 0 {
			return fmt.Errorf("spec: %s.tenants: workload[%d] is owned by no tenant (slicing must cover the whole workload)", path, gi)
		}
	}
	return nil
}

// tenantOwner maps each workload group index to its owning tenant index
// (-1 without tenants). Call only on validated points.
func (p Point) tenantOwner() []int {
	owner := make([]int, len(p.Workload))
	for i := range owner {
		owner[i] = -1
	}
	for ti, t := range p.Tenants {
		for _, gi := range t.Groups {
			owner[gi] = ti
		}
	}
	return owner
}

// ParseSpec decodes and validates a JSON spec. Unknown JSON fields are
// rejected (a typoed key must not silently zero-value a knob), and
// validation errors name the offending field.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	// A second document in the stream is a malformed spec, not extra input.
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MarshalIndent renders the spec as formatted JSON (the form committed
// under specs/ and written by `ibsim export`).
func (s Spec) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// --- Group kinds and sweep axes --------------------------------------------

// groupKind declares one group kind: everything the spec layer, placement,
// the sweep axes and the tenant rules know about it. It is data only; the
// kind's constructor is its case in runScenario, the one other place a
// kind appears. Adding a kind takes its constant, an entry here and that
// construction case.
type groupKind struct {
	// payload is the default payload in bytes; 0 means the spec must set
	// a positive one. pretend's 256 is fixed: it ignores Payload.
	payload int64
	// src is where the group sends from when it sets no Src.
	src sourceSlot
	// probe marks the latency probes: placement reserves a probe's explicit
	// Src from the bulk-source slots, and under tenancy an alltoall group
	// sends nothing from another tenant's probe host.
	probe bool
	// tail marks the kinds whose tail latency runScenario records as their
	// tenant's p99; a tenant owning one gets an isolation baseline.
	tail bool
	// open marks the arrival-driven (open-loop) kinds.
	open bool
	// fatTree marks the kinds that need a fat-tree topology.
	fatTree bool
	// payloadAxis and bsgsAxis mark the kinds whose Payload and Count the
	// payload and bsgs sweep axes rewrite.
	payloadAxis, bsgsAxis bool
}

// sourceSlot is a kind's default source.
type sourceSlot int

const (
	fromBulkSlots sourceSlot = iota // the next free bulk-source slots
	fromEveryHost                   // every host, to a shifted destination
	fromProbeSlot                   // the topology's probe slot
	fromLastBulk                    // the last bulk-source slot
	fromNode0                       // node 0
)

// bulk reports whether the kind sends from its own source pattern (the
// bulk-source slots, or every host) and so takes no Src.
func (k groupKind) bulk() bool { return k.src == fromBulkSlots || k.src == fromEveryHost }

var groupKinds = map[string]groupKind{
	GroupBSG:      {src: fromBulkSlots, payloadAxis: true, bsgsAxis: true},
	GroupLSG:      {payload: 64, src: fromProbeSlot, probe: true, tail: true},
	GroupPretend:  {payload: 256, src: fromLastBulk},
	GroupRPerf:    {payload: 64, src: fromNode0, probe: true, tail: true, payloadAxis: true},
	GroupPerftest: {src: fromNode0, probe: true, payloadAxis: true},
	GroupQperf:    {src: fromNode0, probe: true, payloadAxis: true},
	GroupAllToAll: {src: fromEveryHost, fatTree: true, payloadAxis: true},
	GroupOpenBSG:  {src: fromBulkSlots, tail: true, open: true},
	GroupOpenLSG:  {payload: 64, src: fromProbeSlot, probe: true, tail: true, open: true},
}

// payload is the group's message size: Payload, else its kind's default.
func (g Group) payload() units.ByteSize {
	if g.Payload == 0 {
		return units.ByteSize(groupKinds[g.Kind].payload)
	}
	return units.ByteSize(g.Payload)
}

// source is the node a single-source group sends from: Src, else its
// kind's default slot, or -1 when that slot does not exist (no bulk-source
// slot for pretend).
func (g Group) source(probeSrc int, bsgSrcs []int) int {
	if g.Src != nil {
		return *g.Src
	}
	switch groupKinds[g.Kind].src {
	case fromProbeSlot:
		return probeSrc
	case fromLastBulk:
		if len(bsgSrcs) == 0 {
			return -1
		}
		return bsgSrcs[len(bsgSrcs)-1]
	}
	return 0
}

// axisKind declares one sweep axis. Adding an axis takes its constant, its
// Axis list field and an entry in axisKinds.
type axisKind struct {
	list string         // JSON name of the axis's value list
	len  func(Axis) int // length of that list
	// check validates value i; at is the value's path in the spec, which
	// the error names.
	check func(a Axis, i int, at string) error
	// apply rewrites the point for value i and returns the value's label.
	apply func(p *Point, a Axis, i int) (string, error)
}

var axisKinds = map[string]axisKind{
	AxisPayload: {list: "payloads", len: func(a Axis) int { return len(a.Payloads) },
		check: func(a Axis, i int, at string) error {
			if v := a.Payloads[i]; v <= 0 {
				return fmt.Errorf("spec: %s must be positive, got %d", at, v)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			v := a.Payloads[i]
			p.rewriteGroups(func(g *Group) {
				if groupKinds[g.Kind].payloadAxis {
					g.Payload = v
				}
			})
			return payloadLabel(v), nil
		}},
	AxisBSGs: {list: "counts", len: func(a Axis) int { return len(a.Counts) },
		check: func(a Axis, i int, at string) error {
			if v := a.Counts[i]; v < 0 {
				return fmt.Errorf("spec: %s must be non-negative, got %d", at, v)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			v := a.Counts[i]
			p.rewriteGroups(func(g *Group) {
				if groupKinds[g.Kind].bsgsAxis {
					g.Count = v
				}
			})
			return fmt.Sprint(v), nil
		}},
	AxisPolicy: {list: "policies", len: func(a Axis) int { return len(a.Policies) },
		check: func(a Axis, i int, at string) error {
			if _, err := ibswitch.ParsePolicy(a.Policies[i]); err != nil {
				return fmt.Errorf("spec: %s: %w", at, err)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			p.Policy = a.Policies[i]
			pol, err := ibswitch.ParsePolicy(p.Policy)
			return pol.String(), err
		}},
	AxisTopology: {list: "topologies", len: func(a Axis) int { return len(a.Topologies) },
		check: func(a Axis, i int, at string) error {
			if err := a.Topologies[i].Validate(); err != nil {
				return fmt.Errorf("spec: %s: %w", at, err)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			p.Topology = a.Topologies[i]
			return p.Topology.Label(), nil
		}},
	AxisProfile: {list: "profiles", len: func(a Axis) int { return len(a.Profiles) },
		check: func(a Axis, i int, at string) error {
			if _, err := model.Profile(a.Profiles[i]); err != nil {
				return fmt.Errorf("spec: %s: %w", at, err)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			p.Profile = a.Profiles[i]
			return p.Profile, nil
		}},
	AxisVariant: {list: "variants", len: func(a Axis) int { return len(a.Variants) },
		check: func(a Axis, i int, at string) error {
			if a.Variants[i].Name == "" {
				return fmt.Errorf("spec: %s.name is required", at)
			}
			return a.Variants[i].Point.validate(at + ".point")
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			*p = a.Variants[i].Point
			return a.Variants[i].Name, nil
		}},
	AxisLoad: {list: "loads", len: func(a Axis) int { return len(a.Loads) },
		check: func(a Axis, i int, at string) error {
			if v := a.Loads[i]; v <= 0 {
				return fmt.Errorf("spec: %s must be positive, got %g", at, v)
			}
			return nil
		},
		apply: func(p *Point, a Axis, i int) (string, error) {
			return fmt.Sprintf("%.2f", a.Loads[i]), applyLoad(p, a.Loads[i])
		}},
}

// --- Metrics ---------------------------------------------------------------

// Metrics are one sweep point's per-seed Results, in seed order. Cells read
// them by metric name through metricTable, whose reduce rules visit the
// seeds in this order: float64 summation is order-sensitive, and keeping
// the order fixed is part of the determinism contract.
type Metrics []Result

// metric is one collectable measurement: how a point's seed results reduce
// to a number, and how that number prints.
type metric struct {
	reduce func(Metrics) float64
	format func(float64) string
}

// metricTable maps each Collect name to its one entry. Adding a metric
// takes a Result field and a row here. The formats follow the paper's
// tables: two decimals for microseconds and Gb/s, one for nanoseconds.
var metricTable = map[string]metric{
	"lsg_p50_us":       {seedMean(func(r Result) float64 { return r.LSG.Median.Microseconds() }), f2},
	"lsg_p999_us":      {seedMean(func(r Result) float64 { return r.LSG.P999.Microseconds() }), f2},
	"lsg_samples":      {seedTotal(func(r Result) float64 { return float64(r.LSG.Count) }), f0},
	"bulk_total_gbps":  {seedMean(func(r Result) float64 { return r.Total }), f2},
	"bulk_min_gbps":    {slotwise(bsgSlots, minOf), f2},
	"bulk_max_gbps":    {slotwise(bsgSlots, maxOf), f2},
	"pretend_gbps":     {seedMean(func(r Result) float64 { return r.Pretend }), f2},
	"rperf_p50_ns":     {seedMean(func(r Result) float64 { return r.RPerfMedNs }), f1},
	"rperf_p999_ns":    {seedMean(func(r Result) float64 { return r.RPerfTailNs }), f1},
	"perftest_p50_us":  {seedMean(func(r Result) float64 { return r.PerftestP50Us }), f2},
	"perftest_p999_us": {seedMean(func(r Result) float64 { return r.PerftestP999Us }), f2},
	"qperf_mean_us":    {seedMean(func(r Result) float64 { return r.QperfMeanUs }), f2},
	"fairness":         {seedMean(func(r Result) float64 { return r.Fairness }), f2},
	// Tenant-slicing conformance family (all 0 without tenants).
	"slice_gbps":        {slotwise(tenantGbpsSlots, sum), f2},
	"slice_conf_min":    {slotwise(tenantConfSlots, minOf), f2},
	"slice_conf_max":    {slotwise(tenantConfSlots, maxOf), f2},
	"slice_if_p99_pct":  {interference(tenantP99Slots, tenantIsoP99Slots), f1},
	"slice_if_p999_pct": {interference(func(r Result) []float64 { return r.TenantP999Us }, func(r Result) []float64 { return r.TenantIsoP999Us }), f1},
	// Fault-injection family (all 0 on fault-free points). Counters print
	// with one decimal: they are per-seed totals averaged across seeds.
	"fault_sent_total":        {seedMean(func(r Result) float64 { return float64(r.FaultSent) }), f1},
	"drops_total":             {seedMean(func(r Result) float64 { return float64(r.FaultDrops) }), f1},
	"retx_total":              {seedMean(func(r Result) float64 { return float64(r.Retransmits) }), f1},
	"rnr_total":               {seedMean(func(r Result) float64 { return float64(r.RNRBackoffs) }), f1},
	"qp_errors":               {seedMean(func(r Result) float64 { return float64(r.QPErrors) }), f1},
	"failover_total":          {seedMean(func(r Result) float64 { return float64(r.FailedOver) }), f1},
	"recovery_us":             {seedMean(func(r Result) float64 { return r.RecoveryUs }), f2},
	"fault_p99_inflation_pct": {seedMean(func(r Result) float64 { return r.FaultP99InflationPct }), f1},
	// Open-loop family (all 0 without open-loop groups). backlog_max prints
	// with one decimal: it is a per-seed maximum averaged across seeds.
	"offered_gbps":    {seedMean(func(r Result) float64 { return r.OfferedGbps }), f2},
	"delivered_gbps":  {seedMean(func(r Result) float64 { return r.DeliveredGbps }), f2},
	"sojourn_p50_us":  {seedMean(func(r Result) float64 { return r.SojournP50Us }), f2},
	"sojourn_p99_us":  {seedMean(func(r Result) float64 { return r.SojournP99Us }), f2},
	"sojourn_p999_us": {seedMean(func(r Result) float64 { return r.SojournP999Us }), f2},
	"backlog_max":     {seedMean(func(r Result) float64 { return float64(r.BacklogMax) }), f1},
}

// The reduce rules. A scalar metric is a seed mean (or, for sample counts,
// a total); a slot metric (one value per BSG or per tenant) is reduced per
// slot first, then combined across slots.

// seedMean is the mean of a per-seed value over the seeds.
func seedMean(f func(Result) float64) func(Metrics) float64 {
	return func(m Metrics) float64 {
		if len(m) == 0 {
			return 0
		}
		return m.total(f) / float64(len(m))
	}
}

// seedTotal is the sum of a per-seed value over the seeds.
func seedTotal(f func(Result) float64) func(Metrics) float64 {
	return func(m Metrics) float64 { return m.total(f) }
}

// slotwise combines the per-slot seed means of a slot vector.
func slotwise(slots func(Result) []float64, combine func([]float64) float64) func(Metrics) float64 {
	return func(m Metrics) float64 { return combine(m.slotMeans(slots)) }
}

// interference is the worst per-tenant latency inflation of the per-slot
// seed means over their same-seed isolation baselines.
func interference(full, iso func(Result) []float64) func(Metrics) float64 {
	return func(m Metrics) float64 { return worstInterferencePct(m.slotMeans(full), m.slotMeans(iso)) }
}

// Slot vectors: per BSG in source order, per tenant in declaration order.
// Every seed of a point runs the same configuration, so slot i is the same
// BSG or tenant in every seed.
func bsgSlots(r Result) []float64          { return r.BSGGbps }
func tenantGbpsSlots(r Result) []float64   { return r.TenantGbps }
func tenantConfSlots(r Result) []float64   { return r.TenantConf }
func tenantP99Slots(r Result) []float64    { return r.TenantP99Us }
func tenantIsoP99Slots(r Result) []float64 { return r.TenantIsoP99Us }

// total sums a per-seed value in seed order.
func (m Metrics) total(f func(Result) float64) float64 {
	var t float64
	for _, r := range m {
		t += f(r)
	}
	return t
}

// slotMeans averages a slot vector slot by slot, each slot over the seeds
// that report it, in seed order.
func (m Metrics) slotMeans(slots func(Result) []float64) []float64 {
	var means []float64
	for i := 0; ; i++ {
		var t float64
		n := 0
		for _, r := range m {
			if v := slots(r); i < len(v) {
				t += v[i]
				n++
			}
		}
		if n == 0 {
			return means
		}
		means = append(means, t/float64(n))
	}
}

// value reduces one metric by its table rule.
func (m Metrics) value(name string) float64 { return metricTable[name].reduce(m) }

// cell formats one metric by its table entry.
func (m Metrics) cell(name string) string { return metricTable[name].format(m.value(name)) }

// cells formats the named metrics, in order.
func (m Metrics) cells(names ...string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = m.cell(name)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func minOf(xs []float64) float64 { mn, _ := minMax(xs); return mn }
func maxOf(xs []float64) float64 { _, mx := minMax(xs); return mx }

// worstInterferencePct is the largest relative latency inflation any tenant
// suffers against its isolation baseline, in percent (0 when no baseline
// ran, and never negative: running faster than isolation is not
// interference).
func worstInterferencePct(full, iso []float64) float64 {
	var worst float64
	for i, f := range full {
		if i < len(iso) && iso[i] > 0 && f > 0 {
			if d := (f/iso[i] - 1) * 100; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// MetricNames returns the valid Collect entries, sorted.
func MetricNames() []string { return sortedKeys(metricTable) }

// sortedKeys lists a declaration table's names in sorted order: the fixed
// order of its error messages.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FormatMetric renders one collected metric.
func FormatMetric(name string, m Metrics) (string, error) {
	if _, ok := metricTable[name]; !ok {
		return "", fmt.Errorf("spec: metric %q unknown (valid: %s)", name, strings.Join(MetricNames(), ", "))
	}
	return m.cell(name), nil
}

// ReduceSeeds gathers one point's per-seed results, in seed order, as its
// Metrics. The sweep engine and the serve package both build points through
// it, and every metric reduces from this one ordering, so parallel sweeps
// and checkpoint-restored sweeps reproduce the sequential output bit for
// bit.
func ReduceSeeds(results []Result) Metrics { return Metrics(results) }

// payloadLabel formats a payload axis value the way the paper's tables do
// (64B, 4KB).
func payloadLabel(v int64) string { return units.ByteSize(v).String() }
