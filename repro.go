// Package repro is the public facade of an end-to-end reproduction of
// "Evaluation of an InfiniBand Switch: Choose Latency or Bandwidth, but Not
// Both" (Katebzadeh, Costa, Grot — ISPASS 2020).
//
// The paper characterizes a rack-scale InfiniBand deployment and introduces
// RPerf, a measurement methodology that isolates switch latency from
// end-point overheads. This module substitutes the physical testbed with a
// deterministic discrete-event simulation (see DESIGN.md for the
// substitution argument) and rebuilds everything above it: RNICs with RDMA
// verbs, credit-based flow control, the input-buffered switch with
// pluggable scheduling policies and VL arbitration, the RPerf methodology,
// the Perftest/Qperf baselines, and one experiment runner per figure in the
// paper's evaluation.
//
// # Quick start
//
//	cl := repro.NewCluster(repro.HWTestbed(), 7, 1)
//	rtt, err := cl.MeasureRTT(0, 6, repro.RTTConfig{Payload: 64, Samples: 5000})
//	// rtt.Median, rtt.P999 ...
//
// Experiments:
//
//	tbl, err := repro.RunExperiment("fig7a", repro.DefaultExperimentOptions())
//	fmt.Print(tbl)
package repro

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/tools"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Re-exported parameter profiles.

// FabricParams configures NICs, links, the switch and host software.
type FabricParams = model.FabricParams

// HWTestbed returns the parameter set calibrated against the paper's
// physical rack (ConnectX-4 + SX6012 at 56 Gb/s).
func HWTestbed() FabricParams { return model.HWTestbed() }

// OMNeTSim returns the parameter set matching the paper's OMNeT++ switch
// simulator (no switch micro-architecture, line-rate injectors).
func OMNeTSim() FabricParams { return model.OMNeTSim() }

// Policy selects the switch scheduling policy.
type Policy = ibswitch.Policy

// Scheduling policies.
const (
	FCFS  = ibswitch.FCFS
	RR    = ibswitch.RR
	VLArb = ibswitch.VLArb
)

// Duration and bandwidth types used across the API.
type (
	// Duration is simulated time in picoseconds.
	Duration = units.Duration
	// Bandwidth is bits per second.
	Bandwidth = units.Bandwidth
	// ByteSize is a byte count.
	ByteSize = units.ByteSize
)

// Common units.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Gbps        = units.Gbps
	KB          = units.KB
)

// Cluster is a simulated IB deployment: n hosts behind one ToR switch.
type Cluster struct {
	c *topology.Cluster
}

// NewCluster builds an n-host single-switch rack (the paper uses 7). The
// seed makes the run reproducible.
func NewCluster(par FabricParams, hosts int, seed uint64) *Cluster {
	return &Cluster{c: topology.Star(par, hosts, seed)}
}

// NewBackToBack builds the two-host, no-switch setup of §VI-A.
func NewBackToBack(par FabricParams, seed uint64) *Cluster {
	return &Cluster{c: topology.BackToBack(par, seed)}
}

// NewTwoTier builds the two-switch topology of §VIII-B.
func NewTwoTier(par FabricParams, up, down int, seed uint64) *Cluster {
	return &Cluster{c: topology.TwoTier(par, up, down, seed)}
}

// FatTreeSpec configures the two-layer fat-tree fabric generator:
// leaf/spine counts, hosts per leaf, trunk multiplicity, optional port
// budget and per-tier link overrides.
type FatTreeSpec = topology.FatTreeSpec

// NewFatTree builds a generalized two-layer leaf-spine fabric with
// automatically derived destination-based routing. Node numbering is
// leaf-major: host h of leaf l is node l*HostsPerLeaf + h. Star racks and
// the two-switch topology are the one- and two-leaf special cases.
func NewFatTree(par FabricParams, spec FatTreeSpec, seed uint64) (*Cluster, error) {
	c, err := topology.FatTree(par, spec, seed)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// SetPolicy selects the switch scheduling policy cluster-wide.
func (cl *Cluster) SetPolicy(p Policy) { cl.c.SetPolicy(p) }

// UseDedicatedQoS applies the paper's §VIII-C QoS configuration: SL1 maps
// to high-priority VL1, SL0 to VL0, with the calibrated arbitration
// weights.
func (cl *Cluster) UseDedicatedQoS() error {
	cl.c.SetSL2VL(ib.DedicatedSL2VL())
	cl.c.SetPolicy(ibswitch.VLArb)
	return cl.c.SetVLArb(ib.DedicatedVLArb())
}

// Run advances the simulation by d.
func (cl *Cluster) Run(d Duration) { cl.c.Eng.RunFor(d) }

// Now reports the simulation clock.
func (cl *Cluster) Now() units.Time { return cl.c.Eng.Now() }

// RTTConfig parameterizes MeasureRTT.
type RTTConfig struct {
	// Payload is the probe size (default 64 B, the paper's LSG).
	Payload ByteSize
	// SL is the probe's service level.
	SL uint8
	// Samples is the number of RTT samples to record (default 2000).
	Samples uint64
	// Warmup discards samples before this amount of simulated time.
	Warmup Duration
}

// RTTResult summarizes an RPerf measurement.
type RTTResult struct {
	Median  Duration
	P99     Duration
	P999    Duration
	Min     Duration
	Max     Duration
	Samples uint64
	// LocalOverheadMedian is the median local-side processing time RPerf
	// excluded (TL - TP) — the bias existing tools cannot remove.
	LocalOverheadMedian Duration
}

// MeasureRTT runs an RPerf session from host src to host dst and returns
// the switch round-trip distribution, end-point overheads excluded
// (paper §IV, Eq. 1).
func (cl *Cluster) MeasureRTT(src, dst int, cfg RTTConfig) (RTTResult, error) {
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	if cfg.Samples == 0 {
		cfg.Samples = 2000
	}
	s, err := core.New(cl.c.NIC(src), ib.NodeID(dst), core.Config{
		Payload:    cfg.Payload,
		SL:         ib.SL(cfg.SL),
		Warmup:     cl.c.Eng.Now().Add(cfg.Warmup),
		MaxSamples: cfg.Samples,
	})
	if err != nil {
		return RTTResult{}, err
	}
	s.Start()
	cl.c.Eng.Run()
	sum := s.Summary()
	return RTTResult{
		Median:              sum.Median,
		P99:                 sum.P99,
		P999:                sum.P999,
		Min:                 sum.Min,
		Max:                 sum.Max,
		Samples:             sum.Count,
		LocalOverheadMedian: units.Duration(s.LocalOverhead().Median()),
	}, nil
}

// BulkFlow is a running bandwidth-sensitive generator.
type BulkFlow struct {
	b *traffic.BSG
}

// StartBulkFlow launches an open-loop bulk sender (the paper's BSG) from
// src to dst and begins metering at the current simulation time.
func (cl *Cluster) StartBulkFlow(src, dst int, payload ByteSize, sl uint8) (*BulkFlow, error) {
	b, err := traffic.NewBSG(cl.c.NIC(src), cl.c.NIC(dst), traffic.BSGConfig{
		Payload: payload,
		SL:      ib.SL(sl),
	})
	if err != nil {
		return nil, err
	}
	b.Start(cl.c.Eng.Now())
	return &BulkFlow{b: b}, nil
}

// StartPretendLSG launches the §VIII-C gaming flow: bulk data as small
// batched messages on the latency-sensitive SL.
func (cl *Cluster) StartPretendLSG(src, dst int, sl uint8) (*BulkFlow, error) {
	b, err := traffic.NewPretendLSG(cl.c.NIC(src), cl.c.NIC(dst), ib.SL(sl))
	if err != nil {
		return nil, err
	}
	b.Start(cl.c.Eng.Now())
	return &BulkFlow{b: b}, nil
}

// Goodput reports delivered payload bandwidth at the destination port,
// closing the measurement window now.
func (f *BulkFlow) Goodput(cl *Cluster) Bandwidth {
	f.b.CloseAt(cl.c.Eng.Now())
	return f.b.Goodput()
}

// Stop ceases posting.
func (f *BulkFlow) Stop() { f.b.Stop() }

// LatencyProbe is a continuously running LSG whose distribution can be
// inspected while bulk traffic runs.
type LatencyProbe struct {
	l *traffic.LSG
}

// StartLatencyProbe launches a closed-loop 64 B latency probe.
func (cl *Cluster) StartLatencyProbe(src, dst int, sl uint8) (*LatencyProbe, error) {
	l, err := traffic.NewLSG(cl.c.NIC(src), ib.NodeID(dst), traffic.LSGConfig{
		SL:     ib.SL(sl),
		Warmup: cl.c.Eng.Now(),
	})
	if err != nil {
		return nil, err
	}
	l.Start()
	return &LatencyProbe{l: l}, nil
}

// Summary reports the probe's RTT distribution so far.
func (p *LatencyProbe) Summary() stats.Summary { return p.l.RTT().Summarize() }

// MeasurePerftest runs the Perftest baseline model between two hosts and
// returns its (biased) end-to-end distribution.
func (cl *Cluster) MeasurePerftest(src, dst int, payload ByteSize, d Duration) (stats.Summary, error) {
	client := host.New(cl.c.NIC(src), cl.c.Params.Host)
	server := host.New(cl.c.NIC(dst), cl.c.Params.Host)
	p, err := tools.NewPerftest(client, server, payload, cl.c.Eng.Now())
	if err != nil {
		return stats.Summary{}, err
	}
	p.Start()
	cl.c.Eng.RunFor(d)
	p.Stop()
	return p.RTT().Summarize(), nil
}

// MeasureQperf runs the Qperf baseline model; it reports only a mean, as
// the real tool does.
func (cl *Cluster) MeasureQperf(src, dst int, payload ByteSize, d Duration) (Duration, error) {
	client := host.New(cl.c.NIC(src), cl.c.Params.Host)
	server := host.New(cl.c.NIC(dst), cl.c.Params.Host)
	q, err := tools.NewQperf(client, server, payload, cl.c.Eng.Now())
	if err != nil {
		return 0, err
	}
	q.Start()
	cl.c.Eng.RunFor(d)
	q.Stop()
	return q.MeanRTT(), nil
}

// ExperimentOptions control the experiment runners.
type ExperimentOptions = experiments.Options

// ExperimentTable is a regenerated figure/table.
type ExperimentTable = experiments.Table

// ExperimentSpec is the declarative, serializable description of an
// experiment: a base scenario point, sweep axes and collected metrics. It
// round-trips through JSON, so novel scenarios run from a file without
// recompiling (see `ibsim run -spec`).
type ExperimentSpec = experiments.Spec

// ExperimentSink consumes a table's ordered rows; text, CSV and JSON-lines
// implementations are provided.
type ExperimentSink = experiments.Sink

// Sink constructors.
var (
	NewTextSink  = experiments.NewTextSink
	NewCSVSink   = experiments.NewCSVSink
	NewJSONLSink = experiments.NewJSONLSink
)

// DefaultExperimentOptions mirror the paper's three-run protocol.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions are short smoke-test options.
func QuickExperimentOptions() ExperimentOptions { return experiments.Quick() }

// RunExperiment runs one registered experiment: the paper's figures
// ("fig4" ... "fig13", "eq2"), the extension experiments ("ext-spf",
// "ext-ratelimit") or the fat-tree suite ("incast", "alltoall",
// "crossspine"). Experiments lists the valid IDs.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	d, ok := experiments.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("repro: unknown experiment %q (valid: %s)", id, strings.Join(experiments.IDs(), ", "))
	}
	return experiments.RunSpec(d, opts)
}

// RunAllExperiments regenerates every figure in paper order.
func RunAllExperiments(opts ExperimentOptions) ([]*ExperimentTable, error) {
	return experiments.All(opts)
}

// Experiments returns the registered experiment IDs, sorted.
func Experiments() []string { return experiments.IDs() }

// ParseExperimentSpec decodes and validates a JSON experiment spec.
// Unknown fields and invalid values fail with errors naming the offending
// field.
func ParseExperimentSpec(data []byte) (ExperimentSpec, error) {
	return experiments.ParseSpec(data)
}

// RunExperimentSpec executes a declarative spec through the generic sweep
// engine. If the spec's ID matches a registered experiment, the registry's
// table layout is used, so a serialized figure spec reproduces the
// figure's exact table; otherwise rows are one-per-point (axis labels,
// then the collected metrics).
func RunExperimentSpec(s ExperimentSpec, opts ExperimentOptions) (*ExperimentTable, error) {
	return experiments.RunSpecGeneric(s, opts)
}
