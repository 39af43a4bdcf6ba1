package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/workload"
)

// The probe rebuilds one grid point from the layers' exported
// constructors (topology.Spec.BuildShards, traffic.NewBSG/NewLSG,
// workload.NewOpen, Cluster.RunUntil) so each layer's build and run can be
// timed and counted on its own. It covers the point shapes of the direct
// workloads: bsg, lsg and openbsg groups on the star or a fat-tree, with
// no tenants, QoS, rate limit or faults. It must reproduce
// experiments.Run's statistics for the same point and seed exactly.

// probeOut is the part of experiments.Result a probe reproduces.
type probeOut struct {
	LSG                     stats.Summary
	BSGGbps                 []float64
	Total                   float64
	Offered, Delivered      float64
	SojP50, SojP99, SojP999 float64
	BacklogMax              int
}

func outOf(r experiments.Result) probeOut {
	return probeOut{
		LSG: r.LSG, BSGGbps: r.BSGGbps, Total: r.Total,
		Offered: r.OfferedGbps, Delivered: r.DeliveredGbps,
		SojP50: r.SojournP50Us, SojP99: r.SojournP99Us, SojP999: r.SojournP999Us,
		BacklogMax: r.BacklogMax,
	}
}

// probeRun is one probed run: per-layer time, allocations and counts.
type probeRun struct {
	out                                    probeOut
	sharded                                bool
	topoBuild, trafficBuild, workloadBuild time.Duration
	run                                    time.Duration
	topoAllocs, workloadAllocs, runAllocs  uint64
	events, forwarded, arrivals            uint64
	layers                                 []uint64 // events per layer; nil untraced
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probe runs point p for one seed. parallel selects the coordinator's
// channel barrier on sharded fabrics; traced counts events per layer
// through each engine's Trace hook.
func probe(p experiments.Point, opts experiments.Options, seed uint64, parallel, traced bool) (probeRun, error) {
	var r probeRun
	if len(p.Tenants) > 0 || p.QoS != "" || p.Faults != nil || p.VL1RateLimitGbps > 0 {
		return r, fmt.Errorf("probe: tenants, QoS, rate limits and faults are not modelled")
	}
	fab, err := model.Profile(p.Profile)
	if err != nil {
		return r, err
	}
	pol, err := ibswitch.ParsePolicy(p.Policy)
	if err != nil {
		return r, err
	}
	drain, probeSrc, bsgSrcs, err := placement(p)
	if err != nil {
		return r, err
	}
	start := units.Time(0).Add(opts.Warmup)
	end := start.Add(opts.Measure)

	m0, t0 := mallocs(), time.Now()
	c, err := p.Topology.BuildShards(fab, seed, max(p.Shards, 1))
	if err != nil {
		return r, err
	}
	if c.Coord != nil {
		c.Coord.Parallel = parallel
		r.sharded = true
	}
	c.SetPolicy(pol)
	c.SetSL2VL(ib.SL2VL{})
	r.topoBuild, r.topoAllocs = time.Since(t0), mallocs()-m0

	var starts []func()
	var bsgs []*traffic.BSG
	var lsg *traffic.LSG
	var opens []*workload.Open
	cursor := 0 // next unclaimed bulk-source slot
	for gi, g := range p.Workload {
		dst := drain
		if g.Dst != nil {
			dst = *g.Dst
		}
		sl := ib.SL(g.SL)
		switch g.Kind {
		case experiments.GroupBSG:
			t := time.Now()
			count := min(g.Count, len(bsgSrcs)-cursor)
			for i := 0; i < count; i++ {
				b, err := traffic.NewBSG(c.NIC(bsgSrcs[cursor+i]), c.NIC(dst), traffic.BSGConfig{
					Payload: units.ByteSize(g.Payload),
					SL:      sl,
					MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
				})
				if err != nil {
					return r, err
				}
				bsgs = append(bsgs, b)
				starts = append(starts, func() { b.Start(start) })
			}
			cursor += count
			r.trafficBuild += time.Since(t)
		case experiments.GroupLSG:
			src := probeSrc
			if g.Src != nil {
				src = *g.Src
			}
			t := time.Now()
			l, err := traffic.NewLSG(c.NIC(src), ib.NodeID(dst), traffic.LSGConfig{
				Payload: units.ByteSize(g.Payload),
				SL:      sl,
				Warmup:  start,
			})
			if err != nil {
				return r, err
			}
			r.trafficBuild += time.Since(t)
			lsg = l
			starts = append(starts, l.Start)
		case experiments.GroupOpenBSG:
			count := min(max(g.Count, 1), len(bsgSrcs)-cursor)
			var nics []*rnic.RNIC
			for _, n := range bsgSrcs[cursor : cursor+count] {
				nics = append(nics, c.NIC(n))
			}
			cursor += count
			payload := g.Payload
			if payload == 0 {
				payload = 64 // the experiments layer's default
			}
			m, t := mallocs(), time.Now()
			ow, err := workload.NewOpen(nics, c.NIC(dst), workload.Config{
				Seed:    seed,
				Group:   gi,
				Arrival: workload.Arrival{Kind: g.Arrival.Kind, RateMps: g.Arrival.RateMps, TraceUs: g.Arrival.TraceUs},
				Payload: units.ByteSize(payload),
				SL:      sl,
				Horizon: end,
				Warmup:  start,
				MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
			})
			if err != nil {
				return r, err
			}
			r.workloadBuild += time.Since(t)
			r.workloadAllocs += mallocs() - m
			opens = append(opens, ow)
			starts = append(starts, ow.Start)
		default:
			return r, fmt.Errorf("probe: group kind %q is not modelled", g.Kind)
		}
	}
	for _, s := range starts {
		s()
	}

	engines := []*sim.Engine{c.Eng}
	if c.Coord != nil {
		engines = engines[:0]
		for i := 0; i < c.Coord.NumShards(); i++ {
			engines = append(engines, c.Coord.Shard(i).Eng)
		}
	}
	var counters []*eventCounter
	if traced {
		for _, e := range engines {
			ec := newEventCounter()
			e.Trace = ec.observe
			counters = append(counters, ec)
		}
	}
	if ctx := opts.Ctx; ctx != nil {
		c.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	m, t := mallocs(), time.Now()
	c.RunUntil(end)
	r.run, r.runAllocs = time.Since(t), mallocs()-m
	if c.Interrupted() {
		return r, fmt.Errorf("probe: run cancelled")
	}
	for _, e := range engines {
		r.events += e.Processed()
	}
	for _, sw := range c.Switches {
		r.forwarded += sw.ForwardedPackets
	}
	if traced {
		r.layers = layerCounts(counters)
	}

	// Collect as experiments.Run does, in workload order.
	for _, b := range bsgs {
		b.CloseAt(end)
		g := b.Goodput().Gigabits()
		r.out.BSGGbps = append(r.out.BSGGbps, g)
		r.out.Total += g
	}
	if lsg != nil {
		r.out.LSG = lsg.RTT().Summarize()
	}
	var soj *stats.Histogram
	for _, ow := range opens {
		ow.CloseAt(end)
		r.out.Offered += ow.OfferedGoodput(start, end).Gigabits()
		r.out.Delivered += ow.DeliveredGoodput().Gigabits()
		if h := ow.Sojourns(); soj == nil {
			soj = h
		} else {
			soj.Merge(h)
		}
		r.out.BacklogMax = max(r.out.BacklogMax, ow.BacklogMax())
		r.arrivals += uint64(ow.ArrivalsIn(0, end))
	}
	if soj != nil && soj.Count() > 0 {
		r.out.SojP50 = soj.QuantileDuration(0.50).Microseconds()
		r.out.SojP99 = soj.QuantileDuration(0.99).Microseconds()
		r.out.SojP999 = soj.QuantileDuration(0.999).Microseconds()
	}
	return r, nil
}

// matches reports whether the probe reproduced the reference result.
func (r probeRun) matches(ref experiments.Result) error {
	if want := outOf(ref); !reflect.DeepEqual(r.out, want) {
		return fmt.Errorf("probe statistics %+v differ from experiments.Run's %+v", r.out, want)
	}
	return nil
}

// placement mirrors the experiments layer's role assignment for the star
// and fat-tree shapes: the drain node, the latency probe's source and the
// ordered bulk-source slots.
func placement(p experiments.Point) (drain, probeSrc int, bsgSrcs []int, err error) {
	switch p.Topology.Kind {
	case topology.KindStar:
		return 6, 5, []int{0, 1, 2, 3, 4}, nil
	case topology.KindFatTree:
		spec := p.Topology.FatTree
		drain = spec.NumHosts() - 1
		skip := map[int]bool{probeSrc: true, drain: true}
		for _, g := range p.Workload {
			if g.Src != nil && (g.Kind == experiments.GroupLSG || g.Kind == experiments.GroupOpenLSG) {
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
		return drain, probeSrc, bsgSrcs, nil
	}
	return 0, 0, nil, fmt.Errorf("probe: topology %s is not modelled", p.Topology.Label())
}
