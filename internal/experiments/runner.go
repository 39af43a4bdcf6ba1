package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the sweep executor, the one path every table takes —
// RunSpec's and the serve package's alike. Every scenario run owns an
// independent sim.Engine and rng.Source derived from (configuration,
// seed), so runs never share mutable state and are embarrassingly
// parallel. The executor exploits that: it fans the flattened point×seed
// job grid of a sweep across a bounded worker pool, hands every outcome
// back to the calling goroutine, and leaves every reduction (seed
// averaging, row formatting) there, sequential in grid order — which makes
// parallel output byte-for-byte identical to the sequential path.
// DESIGN.md spells out the contract.

// workers resolves the pool size: Options.Parallel if set, else one worker
// per available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// recovered invokes run(job), converting a panic into an error carrying
// the panic value and stack. One poisoned job must fail its own point,
// never the pool: the worker goroutines and the sequential loop share this
// wrapper, so containment does not depend on the mode.
func recovered(job int, run func(int) (Result, error)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: job %d panicked: %v\n%s", job, r, debug.Stack())
		}
	}()
	return run(job)
}

// Stream executes one sweep and writes its table to sink. Job j runs point
// j/len(seeds) under seed seeds[j%len(seeds)] on up to workers goroutines;
// workers <= 1 is a plain loop on the calling goroutine, the sequential
// reference path. A panicking job becomes that job's error.
//
// Every outcome comes back to the calling goroutine, which reduces each
// point in seed order and writes rows in grid order: a generic-layout row
// as soon as its point and every earlier point are complete, a custom
// layout's rows once the whole grid is in and no point has failed. A
// failed point is reported to fail, in grid order, instead of its row,
// with the error of its lowest failed seed; fail(-1, err) reports a custom
// row assembly that failed. Jobs keep running after a failure, so one
// poisoned point never starves its neighbors.
//
// Cancelling ctx stops dispatch: jobs not yet started never start, in
// either mode, while jobs in flight finish. An error a job returns after
// the cancel is an interruption, not a failure: it is not counted, and
// its point is never reported. Stream returns the number of jobs
// completed; short of the whole grid, the table is left without End.
// Stream does not check the sink's errors: a sink whose writes can fail
// stops the sweep through ctx, as serve's does when its client goes away.
func Stream(ctx context.Context, d Definition, rps []ResolvedPoint, seeds []uint64, workers int,
	run func(job int) (Result, error), sink Sink, fail func(point int, err error)) (completed int) {
	if ctx == nil {
		ctx = context.Background()
	}
	ns, n := len(seeds), len(rps)*len(seeds)
	shell := TableShell(d)
	sink.Begin(TableMeta{ID: shell.ID, Title: shell.Title, Columns: shell.Columns, Notes: shell.Notes})

	results := make([]Result, n)
	errs := make([]error, n)
	done := make([]int, len(rps)) // jobs in, per point
	next, failed := 0, false      // next: the first point not yet written
	point := func(i int) PointResult {
		return PointResult{Point: rps[i].Point, Labels: rps[i].Labels, M: ReduceSeeds(results[i*ns : (i+1)*ns])}
	}
	pointErr := func(i int) error {
		for s, err := range errs[i*ns : (i+1)*ns] {
			if err != nil {
				return fmt.Errorf("seed %d: %w", seeds[s], err)
			}
		}
		return nil
	}
	// exec runs job j into its slots and reports whether it counts: a
	// success always does, an error only while dispatch is live.
	exec := func(j int) bool {
		results[j], errs[j] = recovered(j, run)
		return errs[j] == nil || ctx.Err() == nil
	}
	collect := func(j int) {
		completed++
		done[j/ns]++
		for ; next < len(rps) && done[next] == ns; next++ {
			err := pointErr(next)
			if err == nil && d.Reduce == nil {
				var row []string
				if row, err = genericRow(d.Spec, point(next)); err == nil {
					sink.Row(row)
				}
			}
			if err != nil {
				failed = true
				fail(next, err)
			}
		}
	}

	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n && ctx.Err() == nil; j++ {
			if exec(j) {
				collect(j)
			}
		}
	} else {
		// Workers send the jobs that count; receiving one orders its slots'
		// writes before the caller reads them. One buffer slot per worker,
		// so a worker rarely waits on the sink.
		out := make(chan int, workers)
		var claim atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					j := int(claim.Add(1)) - 1
					if j >= n {
						return
					}
					if exec(j) {
						out <- j
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(out)
		}()
		for j := range out {
			collect(j)
		}
	}
	if completed < n {
		return completed
	}
	if d.Reduce != nil && !failed {
		pts := make([]PointResult, len(rps))
		for i := range pts {
			pts[i] = point(i)
		}
		if err := AssembleInto(shell, d, pts); err != nil {
			fail(-1, err)
		} else {
			for _, row := range shell.Rows {
				sink.Row(row)
			}
		}
	}
	sink.End()
	return completed
}
