package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// tracedRun runs the traced pass under a CPU profile, then (for direct
// workloads) the probe, and fills the per-layer metrics.
func (b *bench) tracedRun(metrics map[string]float64, timed []pass, env environment) error {
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var tp pass
	var grids []grid
	var st servedTrace
	var err error
	if b.w.served {
		tp, st, err = tracedServed(b, rec)
	} else {
		tp, grids, err = tracedDirect(b.w, b.paperOptions(), rec)
	}
	pprof.StopCPUProfile()
	b.t.record(errors.Join(err, sameOutput(tp, timed[0])))
	if err != nil {
		return err
	}
	spans := rec.snapshot()

	var walls []float64
	for _, p := range timed {
		walls = append(walls, p.wall.Seconds())
	}
	metrics["trace_overhead_pct"] = 100 * (tp.wall.Seconds()/median(walls) - 1)
	metrics["experiments.resolve_ms"] = ms(total(spans, "experiments.resolve"))
	metrics["experiments.reduce_ms"] = ms(total(spans, "experiments.reduce"))
	shares, err := cpuShares(prof.Bytes())
	b.t.record(err)
	for k, v := range shares {
		metrics["cpu."+k] = v
	}

	if b.w.served {
		runner := total(spans, "serve.runner")
		metrics["experiments.run_s"] = runner.Seconds()
		metrics["serve.runner_s"] = runner.Seconds()
		metrics["experiments.jobs"] = float64(count(spans, "serve.runner"))
		var self time.Duration
		for _, id := range st.requests {
			self += selfTime(spans[id-1], spans)
		}
		metrics["serve.self_ms"] = ms(self)
		metrics["serve.journal_kb"] = st.journalKB
		metrics["serve.jobs_run"] = float64(st.stats.JobsRun)
		metrics["serve.jobs_resumed"] = float64(st.stats.JobsResumed)
		metrics["serve.retries"] = float64(st.stats.Retries)
		metrics["serve.panics"] = float64(st.stats.Panics)
		metrics["serve.shed"] = float64(st.stats.SweepsShed)
		faultCounters(metrics, tp)
	} else {
		metrics["experiments.run_s"] = total(spans, "experiments.run").Seconds()
		metrics["experiments.jobs"] = float64(count(spans, "experiments.run"))
		b.probeAll(metrics, grids)
	}
	return writeSpans(filepath.Join(outDir, "spans-"+b.w.name+".jsonl"), env, spans)
}

func count(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// faultCounters sums the fault columns the specs collect over every row:
// drops, retransmissions, failovers and QP errors. Cells are seed means
// with one decimal, summed in tenths so the totals repeat exactly.
func faultCounters(metrics map[string]float64, p pass) {
	tenths := map[string]int64{}
	var drops, retxWithDrops int64
	for _, out := range p.out {
		for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
			var row struct {
				Type  string            `json:"type"`
				Cells map[string]string `json:"cells"`
			}
			if json.Unmarshal(line, &row) != nil || row.Type != "row" {
				continue
			}
			cell := func(k string) int64 {
				v, _ := strconv.ParseFloat(row.Cells[k], 64)
				return int64(math.Round(v * 10))
			}
			for _, k := range []string{"drops_total", "retx_total", "failover_total", "qp_errors"} {
				tenths[k] += cell(k)
			}
			if _, ok := row.Cells["drops_total"]; ok {
				drops += cell("drops_total")
				retxWithDrops += cell("retx_total")
			}
		}
	}
	metrics["link.fault_drops"] = float64(tenths["drops_total"]) / 10
	metrics["rnic.retx"] = float64(tenths["retx_total"]) / 10
	metrics["ibswitch.failover"] = float64(tenths["failover_total"]) / 10
	metrics["rnic.qp_errors"] = float64(tenths["qp_errors"]) / 10
	if drops > 0 {
		metrics["rnic.retx_per_drop"] = float64(retxWithDrops) / float64(drops)
	}
}

// probeAll probes every grid point for the first seed: untraced in the
// program's default barrier mode (layer times, allocations, counts), on
// sharded fabrics untraced in the other mode too (the barrier ratio), then
// traced in each mode, whose per-layer event counts must agree. Every
// probed run must reproduce experiments.Run's statistics and counts.
func (b *bench) probeAll(metrics map[string]float64, grids []grid) {
	opts := b.paperOptions()
	seed, nseeds := opts.Seeds[0], len(opts.Seeds)
	defaultParallel := runtime.GOMAXPROCS(0) > 1 // the program's choice on sharded fabrics
	var run, runPar, runSeq time.Duration
	var events, forwarded uint64
	layers := make([]uint64, len(eventLayers)+1)
	for _, g := range grids {
		for pi, rp := range g.points {
			ref := g.results[pi*nseeds]
			base, err := probeOnce(rp.Point, opts, seed, defaultParallel, false, ref, nil)
			b.t.record(err)
			if err != nil {
				continue
			}
			modes := []bool{defaultParallel}
			if base.sharded {
				modes = append(modes, !defaultParallel)
			}
			var baseLayers []uint64
			for i, parallel := range modes {
				if base.sharded {
					r := base
					if i > 0 {
						r, err = probeOnce(rp.Point, opts, seed, parallel, false, ref, &base)
						b.t.record(err)
					}
					if parallel {
						runPar += r.run
					} else {
						runSeq += r.run
					}
				}
				r, err := probeOnce(rp.Point, opts, seed, parallel, true, ref, &base)
				if err == nil && baseLayers != nil && !slices.Equal(r.layers, baseLayers) {
					err = fmt.Errorf("per-layer events differ between barrier modes: %v vs %v", r.layers, baseLayers)
				}
				b.t.record(err)
				if err == nil && baseLayers == nil {
					baseLayers = r.layers
				}
			}
			for i, v := range baseLayers {
				layers[i] += v
			}
			metrics["topology.build_ms"] += ms(base.topoBuild)
			metrics["topology.build_allocs"] += float64(base.topoAllocs)
			metrics["traffic.build_ms"] += ms(base.trafficBuild)
			metrics["workload.build_ms"] += ms(base.workloadBuild)
			metrics["workload.build_allocs"] += float64(base.workloadAllocs)
			metrics["workload.arrivals"] += float64(base.arrivals)
			metrics["workload.backlog_max"] = max(metrics["workload.backlog_max"], float64(base.out.BacklogMax))
			metrics["sim.run_allocs"] += float64(base.runAllocs)
			run += base.run
			events += base.events
			forwarded += base.forwarded
		}
	}
	metrics["sim.run_s"] = run.Seconds()
	metrics["sim.events"] = float64(events)
	metrics["ibswitch.forwarded"] = float64(forwarded)
	if events > 0 {
		metrics["sim.ns_per_event"] = float64(run.Nanoseconds()) / float64(events)
	}
	if forwarded > 0 {
		metrics["sim.events_per_packet"] = float64(events) / float64(forwarded)
	}
	if runSeq > 0 {
		metrics["sim.barrier_ratio"] = runPar.Seconds() / runSeq.Seconds()
	}
	for i, v := range layers {
		name := "other"
		if i < len(eventLayers) {
			name = eventLayers[i]
		}
		metrics["events."+name] = float64(v)
	}
}

// probeOnce runs one probe after a GC and checks it reproduces the
// reference result and, given base, base's event and packet counts.
func probeOnce(p experiments.Point, opts experiments.Options, seed uint64, parallel, traced bool, ref experiments.Result, base *probeRun) (probeRun, error) {
	runtime.GC()
	r, err := probe(p, opts, seed, parallel, traced)
	if err != nil {
		return r, err
	}
	if err := r.matches(ref); err != nil {
		return r, err
	}
	if base != nil && (r.events != base.events || r.forwarded != base.forwarded) {
		return r, fmt.Errorf("probe counts differ between runs: %d vs %d events, %d vs %d packets",
			r.events, base.events, r.forwarded, base.forwarded)
	}
	return r, nil
}
