// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI-§VIII) and runs arbitrary user-defined scenarios. The
// layer is declarative: a serializable Spec (spec.go) describes a sweep, a
// generic engine (sweep.go) executes it over the parallel runner
// (runner.go), and the paper's figures are registry entries (registry.go,
// figures.go) — a Spec and its column names each.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/rnic"
	"repro/internal/stats"
	"repro/internal/tools"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options control experiment length and repetition.
type Options struct {
	// Measure is the measurement window after warmup.
	Measure units.Duration
	// Warmup precedes the measurement window; generators run but samples
	// are discarded.
	Warmup units.Duration
	// Seeds are the runs to average (the paper runs each test three
	// times).
	Seeds []uint64
	// Parallel is the worker-pool size for fanning scenario runs across
	// CPUs: 0 means one worker per CPU (GOMAXPROCS), 1 forces the
	// sequential reference path. Results are byte-identical either way;
	// see runner.go.
	Parallel int
	// Ctx, when non-nil, cancels runs: the sweep runner stops dispatching
	// new jobs (sequential and parallel modes behave identically — jobs
	// not yet started never start, jobs in flight drain), and a running
	// simulation aborts at its next engine interrupt poll. Completed
	// results are never affected: a nil or never-cancelled Ctx is the
	// byte-identical reference path.
	Ctx context.Context
}

// ctx returns the run context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultOptions mirror the paper's protocol scaled to simulation time:
// long enough that converged-scenario histograms hold thousands of samples.
func DefaultOptions() Options {
	return Options{
		Measure: 12 * units.Millisecond,
		Warmup:  3 * units.Millisecond,
		Seeds:   []uint64{1, 2, 3},
	}
}

// Quick returns short options for smoke tests.
func Quick() Options {
	return Options{
		Measure: 3 * units.Millisecond,
		Warmup:  1 * units.Millisecond,
		Seeds:   []uint64{1},
	}
}

func (o Options) end() units.Time   { return units.Time(0).Add(o.Warmup + o.Measure) }
func (o Options) start() units.Time { return units.Time(0).Add(o.Warmup) }

// Result carries the measured outputs of one Point run under one seed.
// Only the fields matching the point's workload groups are populated.
// Result serializes to JSON losslessly except for LSGHist, which is
// excluded: the raw histogram backs only within-run derivations (tenant
// tails, fault inflation), never the cross-seed reduction, so a Result
// restored from a service checkpoint reduces to byte-identical tables (the
// serve package depends on this; float64 values survive encoding/json
// exactly).
type Result struct {
	LSG     stats.Summary
	LSGHist *stats.Histogram `json:"-"`
	BSGGbps []float64        // per-BSG goodput, source order
	Pretend float64          // pretend-LSG goodput (Gb/s), if enabled
	Total   float64          // total bulk goodput including the pretend flow
	// RPerf measurements in nanoseconds (rperf group).
	RPerfMedNs, RPerfTailNs float64
	// Baseline-tool measurements in microseconds (perftest/qperf groups).
	PerftestP50Us, PerftestP999Us, QperfMeanUs float64
	// Fairness is min/max per-destination goodput (alltoall group).
	Fairness float64
	// Tenant slices, indexed like Point.Tenants (populated only when the
	// point declares tenants). Gbps is the tenant's delivered bulk goodput,
	// Conf its conformance ratio delivered/promised, P99/P999 the tail
	// latency of its first tail group (µs; a kind groupKinds marks tail),
	// and IsoP99/IsoP999 the same tails from the same-seed isolation
	// baseline (zero when the run has fewer than two tenants or the tenant
	// owns no tail group).
	TenantGbps, TenantConf          []float64
	TenantP99Us, TenantP999Us       []float64
	TenantIsoP99Us, TenantIsoP999Us []float64
	// Fault-injection outputs (populated only when the point declares a
	// fault schedule). FaultSent/FaultDrops count packets offered to and
	// dropped by fault-instrumented links; Retransmits/RNRBackoffs/QPErrors
	// are the fabric-wide RC reliability totals; FailedOver counts packets
	// re-routed around downed egresses.
	FaultSent, FaultDrops    uint64
	Retransmits, RNRBackoffs uint64
	QPErrors, FailedOver     uint64
	// RecoveryUs is first fault onset to last retransmission recovery, µs.
	RecoveryUs float64
	// FaultP99InflationPct is the latency probe's p99 inflation over the
	// same-seed fault-free twin (measure_inflation only).
	FaultP99InflationPct float64
	// Open-loop outputs (populated only when the point has openbsg/openlsg
	// groups). Offered is the scheduled arrival payload rate inside the
	// measurement window, Delivered the destination-metered goodput; the
	// sojourn quantiles are arrival→completion percentiles merged across
	// every open group (group order); BacklogMax is the deepest per-source
	// arrival backlog any open group saw.
	OfferedGbps, DeliveredGbps                float64
	SojournP50Us, SojournP99Us, SojournP999Us float64
	BacklogMax                                int
}

// Run executes one point once with the given seed. The run is sealed: it
// owns its engine and every RNG stream derives from (configuration, seed),
// so concurrent runs share no mutable state (see DESIGN.md).
func Run(p Point, opts Options, seed uint64) (Result, error) {
	fab, err := model.Profile(p.Profile)
	if err != nil {
		return Result{}, err
	}
	return RunFabric(p, fab, opts, seed)
}

// RunFabric is Run with an explicit parameter set instead of the point's
// named profile — the programmatic escape hatch for ablation studies that
// perturb individual calibration constants (see bench_test.go).
//
// Points with two or more tenants additionally run one isolation baseline
// per tenant that owns a tail group: the identical sealed configuration
// (same construction order, same QP numbering) with only that tenant's
// groups started. The baseline tails land in TenantIsoP99Us/TenantIsoP999Us
// so interference is measured against the same seed, not a different run.
func RunFabric(p Point, fab model.FabricParams, opts Options, seed uint64) (Result, error) {
	res, err := runScenario(p, fab, opts, seed, -1)
	if err != nil {
		return Result{}, err
	}
	if len(p.Tenants) >= 2 {
		res.TenantIsoP99Us = make([]float64, len(p.Tenants))
		res.TenantIsoP999Us = make([]float64, len(p.Tenants))
		for ti := range p.Tenants {
			if !p.tenantHasLatencyGroup(ti) {
				continue
			}
			iso, err := runScenario(p, fab, opts, seed, ti)
			if err != nil {
				return Result{}, err
			}
			res.TenantIsoP99Us[ti] = iso.TenantP99Us[ti]
			res.TenantIsoP999Us[ti] = iso.TenantP999Us[ti]
		}
	}
	// The fault-free twin: the identical sealed configuration with the
	// schedule removed (and reliability off — arming it schedules no events
	// and draws no RNG until a timeout fires, so a clean run's p99 is the
	// same either way). The probe's p99 against the twin isolates what the
	// faults cost, measured under the same seed.
	if p.Faults != nil && p.Faults.MeasureInflation {
		clean := p
		clean.Faults = nil
		twin, err := runScenario(clean, fab, opts, seed, -1)
		if err != nil {
			return Result{}, err
		}
		if res.LSGHist != nil && res.LSGHist.Count() > 0 && twin.LSGHist != nil && twin.LSGHist.Count() > 0 {
			cp := twin.LSGHist.QuantileDuration(0.99).Microseconds()
			fp := res.LSGHist.QuantileDuration(0.99).Microseconds()
			if cp > 0 {
				res.FaultP99InflationPct = (fp/cp - 1) * 100
			}
		}
	}
	return res, nil
}

// runScenario executes one sealed run. isolate < 0 starts every workload
// group; isolate >= 0 constructs everything (preserving placement and QP
// numbering) but starts — and collects — only the groups owned by that
// tenant, producing the isolation baseline for interference metrics.
func runScenario(p Point, fab model.FabricParams, opts Options, seed uint64, isolate int) (Result, error) {
	if err := opts.ctx().Err(); err != nil {
		return Result{}, fmt.Errorf("experiments: run cancelled: %w", err)
	}
	slc, err := resolveSlicing(p, fab)
	if err != nil {
		return Result{}, err
	}
	polName := p.Policy
	if polName == "" && (p.QoS == QoSDedicated || slc.vlarb != nil) {
		polName = "vlarb"
	}
	pol, err := ibswitch.ParsePolicy(polName)
	if err != nil {
		return Result{}, err
	}
	shards := p.Shards
	if shards == 0 {
		shards = 1
	}
	c, err := p.Topology.BuildShards(fab, seed, shards)
	if err != nil {
		return Result{}, err
	}
	if c.Coord != nil {
		// Permit the shard workers only with real cores behind them and
		// when the caller did not pin the run sequential (opts.Parallel ==
		// 1 is the sweep runner's sequential pin). A permitted run keeps
		// the workers only while its epochs are dense enough to pay for
		// the handoff (sim.Coordinator); results are identical either way.
		c.Coord.Parallel = shards > 1 && opts.Parallel != 1 && runtime.GOMAXPROCS(0) > 1
	}
	c.SetPolicy(pol)
	sl2vl := ib.SL2VL{}
	var vlarb *ib.VLArbConfig
	if p.QoS == QoSDedicated {
		sl2vl = ib.DedicatedSL2VL()
		arb := ib.DedicatedVLArb()
		vlarb = &arb
	}
	if slc.active {
		sl2vl = slc.sl2vl
		vlarb = slc.vlarb
	}
	c.SetSL2VL(sl2vl)
	if vlarb != nil {
		if err := c.SetVLArb(*vlarb); err != nil {
			return Result{}, err
		}
	}
	if p.VL1RateLimitGbps > 0 {
		// Allow a burst of a few latency-sized messages so an idle VL1
		// still serves a real LSG promptly.
		rate := units.Bandwidth(p.VL1RateLimitGbps * float64(units.Gbps))
		c.SetVLRateLimit(1, rate, 4*(256+ib.MaxHeaderBytes))
	}

	// The fault schedule installs after the fabric's configuration and
	// before any generator exists: every RNIC must stamp PSNs from its very
	// first send, and the schedule's flap/degrade events must precede all
	// traffic events at equal times only by construction order, which the
	// engine's seq tiebreak preserves deterministically.
	var faultOnset units.Time
	if p.Faults != nil {
		faultOnset, err = installFaults(c, p.Faults)
		if err != nil {
			return Result{}, err
		}
	}

	drain, probeSrc, bsgSrcs := placement(p)
	end := opts.end()

	// Collection writes res in workload order; every reduction downstream
	// preserves it. Each group's collect closure is made by its
	// construction case below.
	var res Result
	if n := len(p.Tenants); n > 0 {
		res.TenantGbps = make([]float64, n)
		res.TenantConf = make([]float64, n)
		res.TenantP99Us = make([]float64, n)
		res.TenantP999Us = make([]float64, n)
	}
	tenantBulk := func(gi int, gbps float64) {
		if ti := slc.owner[gi]; ti >= 0 {
			res.TenantGbps[ti] += gbps
		}
	}
	tenantTail := func(gi int, h *stats.Histogram) {
		if ti := slc.owner[gi]; ti >= 0 && res.TenantP99Us[ti] == 0 && h.Count() > 0 {
			res.TenantP99Us[ti] = h.QuantileDuration(0.99).Microseconds()
			res.TenantP999Us[ti] = h.QuantileDuration(0.999).Microseconds()
		}
	}
	// closeBulk closes one bulk flow's meter and books its goodput to the
	// bulk total and the group's tenant.
	closeBulk := func(gi int, b *traffic.BSG) float64 {
		b.CloseAt(end)
		g := b.Goodput().Gigabits()
		res.Total += g
		tenantBulk(gi, g)
		return g
	}
	var sojourns *stats.Histogram // merged across open groups, group order

	// Construct groups in workload order, then start them in the same
	// order; both orders are part of the determinism contract (spec.go).
	// The two phases are split so tenant injection limiters install after
	// every QP exists but before the first event, and so isolation
	// baselines can skip starting foreign groups without perturbing
	// placement. Constructors schedule no events and draw no randomness,
	// so the split is invisible to unsliced runs (the goldens lock this).
	type started struct {
		srcs    []int    // sending nodes, for limiter installation
		starts  []func() // deferred Start calls, construction order
		collect func()   // records the group's results in res after the run
	}
	var groups []*started
	slFor := func(gi int, g Group) ib.SL {
		if slc.active {
			return slc.slOf[gi]
		}
		return ib.SL(g.SL)
	}
	servers := map[int]*host.Host{} // baseline tools share one server host per node
	serverFor := func(node int) *host.Host {
		if h, ok := servers[node]; ok {
			return h
		}
		h := host.New(c.NIC(node), fab.Host)
		servers[node] = h
		return h
	}
	cursor := 0 // next unclaimed bulk-source slot
	for gi, g := range p.Workload {
		sg := &started{}
		dst := drain
		if g.Dst != nil {
			dst = *g.Dst
		}
		// A single-source kind sends from src; the bulk kinds place their
		// own sources below.
		src := g.source(probeSrc, bsgSrcs)
		if !groupKinds[g.Kind].bulk() {
			sg.srcs = []int{src}
		}
		switch g.Kind {
		case GroupBSG:
			count := min(g.Count, len(bsgSrcs)-cursor) // the fabric has only so many source slots
			var bsgs []*traffic.BSG
			for i := 0; i < count; i++ {
				n := bsgSrcs[cursor+i]
				b, err := traffic.NewBSG(c.NIC(n), c.NIC(dst), traffic.BSGConfig{
					Payload: g.payload(),
					SL:      slFor(gi, g),
					MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
				})
				if err != nil {
					return Result{}, err
				}
				sg.starts = append(sg.starts, func() { b.Start(opts.start()) })
				sg.srcs = append(sg.srcs, n)
				bsgs = append(bsgs, b)
			}
			cursor += count
			sg.collect = func() {
				for _, b := range bsgs {
					res.BSGGbps = append(res.BSGGbps, closeBulk(gi, b))
				}
			}
		case GroupPretend:
			// The pretend LSG always takes the last bulk-source slot (the
			// downstream node in the two-tier topology), independent of
			// how many honest BSGs run — so reducing the BSG count does
			// not relocate the gaming flow.
			if src < 0 {
				return Result{}, fmt.Errorf("experiments: pretend group needs a bulk-source slot, but topology %s has none free (set src explicitly)", p.Topology.Label())
			}
			b, err := traffic.NewPretendLSG(c.NIC(src), c.NIC(dst), slFor(gi, g))
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){func() { b.Start(opts.start()) }}
			sg.collect = func() { res.Pretend = closeBulk(gi, b) }
		case GroupLSG:
			l, err := traffic.NewLSG(c.NIC(src), ib.NodeID(dst), traffic.LSGConfig{
				Payload: g.payload(),
				SL:      slFor(gi, g),
				Warmup:  opts.start(),
			})
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){l.Start}
			sg.collect = func() {
				res.LSGHist = l.RTT()
				res.LSG = l.RTT().Summarize()
				tenantTail(gi, l.RTT())
			}
		case GroupRPerf:
			s, err := core.New(c.NIC(src), ib.NodeID(dst), core.Config{
				Payload: g.payload(),
				SL:      slFor(gi, g),
				Warmup:  opts.start(),
			})
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){s.Start}
			sg.collect = func() {
				sum := s.Summary()
				res.RPerfMedNs = sum.Median.Nanoseconds()
				res.RPerfTailNs = sum.P999.Nanoseconds()
				tenantTail(gi, s.RTT())
			}
		case GroupPerftest:
			client := host.New(c.NIC(src), fab.Host)
			pf, err := tools.NewPerftest(client, serverFor(dst), g.payload(), opts.start())
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){pf.Start}
			sg.collect = func() {
				res.PerftestP50Us = units.Duration(pf.RTT().Median()).Microseconds()
				res.PerftestP999Us = units.Duration(pf.RTT().P999()).Microseconds()
			}
		case GroupQperf:
			client := host.New(c.NIC(src), fab.Host)
			qp, err := tools.NewQperf(client, serverFor(dst), g.payload(), opts.start())
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){qp.Start}
			sg.collect = func() { res.QperfMeanUs = qp.MeanRTT().Microseconds() }
		case GroupOpenBSG, GroupOpenLSG:
			if g.Arrival == nil {
				return Result{}, fmt.Errorf("experiments: workload[%d] kind %q requires an arrival block", gi, g.Kind)
			}
			if g.Kind == GroupOpenBSG {
				count := min(max(g.Count, 1), len(bsgSrcs)-cursor)
				sg.srcs = bsgSrcs[cursor : cursor+count]
				cursor += count
			}
			if len(sg.srcs) == 0 {
				return Result{}, fmt.Errorf("experiments: workload[%d] (%s) has no free bulk-source slots on topology %s", gi, g.Kind, p.Topology.Label())
			}
			nics := make([]*rnic.RNIC, len(sg.srcs))
			for i, n := range sg.srcs {
				nics[i] = c.NIC(n)
			}
			// The arrival schedule is pre-generated inside NewOpen from the
			// sealed (seed, group-index) stream — no cluster RNG is touched
			// and no events are scheduled until Start, preserving the
			// phase-split contract above.
			ow, err := workload.NewOpen(nics, c.NIC(dst), workload.Config{
				Seed:    seed,
				Group:   gi,
				Arrival: workload.Arrival{Kind: g.Arrival.Kind, RateMps: g.Arrival.RateMps, TraceUs: g.Arrival.TraceUs},
				Payload: g.payload(),
				SL:      slFor(gi, g),
				UseSend: g.Kind == GroupOpenLSG,
				Horizon: end,
				Warmup:  opts.start(),
				MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
			})
			if err != nil {
				return Result{}, err
			}
			sg.starts = []func(){ow.Start}
			sg.collect = func() {
				ow.CloseAt(end)
				res.OfferedGbps += ow.OfferedGoodput(opts.start(), end).Gigabits()
				d := ow.DeliveredGoodput().Gigabits()
				res.DeliveredGbps += d
				tenantBulk(gi, d)
				h := ow.Sojourns()
				tenantTail(gi, h)
				if sojourns == nil {
					sojourns = h
				} else {
					sojourns.Merge(h)
				}
				res.BacklogMax = max(res.BacklogMax, ow.BacklogMax())
			}
		case GroupAllToAll:
			spec := p.Topology.FatTree
			if spec == nil {
				return Result{}, fmt.Errorf("experiments: alltoall group requires a fattree topology")
			}
			h := spec.NumHosts()
			shifts := allToAllRounds(g, spec)
			// Under tenancy, the every-host-sends pattern must not send
			// from a host carrying another tenant's latency probe: the
			// probe's QP would share a send engine with a 256-deep paced
			// bulk queue, and that head-of-line wait is an engine-sharing
			// artifact, not slice interference. Receiving there is fine —
			// the receive path does not queue behind the send FIFOs.
			skip := map[int]bool{}
			for oi, og := range p.Workload {
				if slc.active && slc.owner[oi] != slc.owner[gi] && groupKinds[og.Kind].probe {
					skip[og.source(probeSrc, bsgSrcs)] = true
				}
			}
			// Round r shifts destinations by r whole leaves, so every
			// flow leaves its source leaf and crosses the spine layer.
			var bsgs []*traffic.BSG
			var dstOf []int
			for r := 1; r <= shifts; r++ {
				for i := 0; i < h; i++ {
					if skip[i] {
						continue
					}
					d := (i + r*spec.HostsPerLeaf) % h
					b, err := traffic.NewBSG(c.NIC(i), c.NIC(d), traffic.BSGConfig{
						Payload: g.payload(),
						SL:      slFor(gi, g),
					})
					if err != nil {
						return Result{}, err
					}
					sg.starts = append(sg.starts, func() { b.Start(opts.start()) })
					sg.srcs = append(sg.srcs, i)
					bsgs = append(bsgs, b)
					dstOf = append(dstOf, d)
				}
			}
			sg.collect = func() {
				perDst := make([]float64, h)
				for i, b := range bsgs {
					perDst[dstOf[i]] += closeBulk(gi, b)
				}
				if mn, mx := minMax(perDst); mx > 0 {
					res.Fairness = mn / mx
				}
			}
		default:
			return Result{}, fmt.Errorf("experiments: unknown workload group kind %q", g.Kind)
		}
		groups = append(groups, sg)
	}

	// Install each tenant's shared injection limiter on its member NICs
	// (first-seen order over owned groups' sources) before any generator
	// runs, so the very first injected packet is already metered.
	if slc.active {
		for ti := range p.Tenants {
			lim := slc.limiter[ti]
			if lim == nil {
				continue
			}
			seen := make(map[int]bool)
			for gi, sg := range groups {
				if slc.owner[gi] != ti {
					continue
				}
				for _, n := range sg.srcs {
					if !seen[n] {
						seen[n] = true
						c.NIC(n).SetInjectionLimit(ib.VL(ti), lim)
					}
				}
			}
		}
	}

	for gi, sg := range groups {
		if isolate >= 0 && slc.owner[gi] != isolate {
			continue
		}
		for _, start := range sg.starts {
			start()
		}
	}

	if ctx := opts.Ctx; ctx != nil {
		// A cancelled context (the sweep runner draining, a per-job
		// deadline expiring) aborts the simulation at the engine's next
		// interrupt poll instead of grinding to the scheduled end. The
		// check is a nil test per event when no context is set, so the
		// reference path's hot loop is untouched.
		c.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	c.RunUntil(end)
	if c.Interrupted() {
		return Result{}, fmt.Errorf("experiments: run cancelled at %v of %v simulated: %w", c.Eng.Now(), end, opts.Ctx.Err())
	}

	// Isolation runs collect only the isolated tenant's groups — the rest
	// never started, so their meters and histograms are empty.
	for gi, sg := range groups {
		if isolate < 0 || slc.owner[gi] == isolate {
			sg.collect()
		}
	}
	if sojourns != nil && sojourns.Count() > 0 {
		res.SojournP50Us = sojourns.QuantileDuration(0.50).Microseconds()
		res.SojournP99Us = sojourns.QuantileDuration(0.99).Microseconds()
		res.SojournP999Us = sojourns.QuantileDuration(0.999).Microseconds()
	}
	for ti, t := range p.Tenants {
		if t.PromisedGbps > 0 {
			res.TenantConf[ti] = res.TenantGbps[ti] / t.PromisedGbps
		}
	}
	if p.Faults != nil {
		res.FaultSent, res.FaultDrops = c.FaultTotals()
		rel := c.RelTotals()
		res.Retransmits = rel.Retransmits
		res.RNRBackoffs = rel.RNRBackoffs
		res.QPErrors = rel.QPErrors
		res.FailedOver = c.FailoverTotal()
		if rel.Recovered > 0 && rel.LastRecovery > faultOnset {
			res.RecoveryUs = rel.LastRecovery.Sub(faultOnset).Microseconds()
		}
	}
	return res, nil
}

// placement maps workload roles onto cluster nodes: the drain port, the
// latency probe's slot, and the ordered bulk-source slots.
func placement(p Point) (drain, probeSrc int, bsgSrcs []int) {
	switch p.Topology.Kind {
	case topology.KindBackToBack:
		return 1, 0, []int{0}
	case topology.KindTwoTier:
		// §VIII-B: nodes 0,1 are upstream BSGs, node 2 the LSG; nodes
		// 3,4,5 are downstream BSGs, node 6 the destination.
		return 6, 2, []int{0, 1, 3, 4, 5}
	case topology.KindFatTree:
		// The incast pattern of §V generalized across the fabric: the
		// drain port is the last host of the last leaf, the latency probe
		// crosses the whole fabric from host 0, and bulk sources fill in
		// leaf-by-leaf (host-major) so the first N senders of an N-to-1
		// incast spread across as many leaves — and spine paths — as
		// possible. Probe endpoints and every group destination are
		// reserved, so a re-aimed probe (cross-spine disjoint path) never
		// collides with a bulk source.
		spec := p.Topology.FatTree
		drain = spec.NumHosts() - 1
		probeSrc = 0
		skip := map[int]bool{probeSrc: true, drain: true}
		for _, g := range p.Workload {
			if g.Src != nil && groupKinds[g.Kind].probe {
				skip[*g.Src] = true
			}
			if g.Dst != nil {
				skip[*g.Dst] = true
			}
		}
		for h := 0; h < spec.HostsPerLeaf; h++ {
			for l := 0; l < spec.TotalLeaves(); l++ {
				if n := spec.HostNode(l, h); !skip[n] {
					bsgSrcs = append(bsgSrcs, n)
				}
			}
		}
		return drain, probeSrc, bsgSrcs
	default: // star: the paper's 7-node rack, node 6 is the destination
		return 6, 5, []int{0, 1, 2, 3, 4}
	}
}

func minMax(xs []float64) (mn, mx float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mn, mx = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// PayloadSweep is the payload series of Figures 4, 5, 6, 8 and 9, in
// bytes.
var PayloadSweep = []int64{64, 128, 256, 512, 1024, 2048, 4096}
