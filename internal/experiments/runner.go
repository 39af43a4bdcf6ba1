package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the concurrent scenario runner. Every scenario run owns an
// independent sim.Engine and rng.Source derived from (configuration, seed),
// so runs never share mutable state and are embarrassingly parallel. The
// runner exploits that: it fans the flattened scenario×seed job grid of a
// sweep across a bounded worker pool, stores each result at its job index,
// and leaves every reduction (seed averaging, row formatting) sequential in
// job order — which makes parallel output byte-for-byte identical to the
// sequential path. DESIGN.md spells out the contract.

// workers resolves the pool size: Options.Parallel if set, else one worker
// per available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// recovered invokes fn(i), converting a panic into an error carrying the
// panic value and stack. One poisoned job must fail its own slot, never
// the pool: the worker goroutines and the sequential reference loop share
// this wrapper, so containment does not depend on the mode.
func recovered[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// mapOrdered computes fn(0..n-1) on up to workers goroutines and returns
// the results in index order. With one worker it degenerates to a plain
// loop on the calling goroutine — the reference sequential path. On error
// the remaining jobs still run (in every mode, so side effects do not
// depend on the pool size), and the error of the lowest-indexed failed
// job is returned, so the reported error does not depend on goroutine
// interleaving either. A panicking job is contained: it becomes that job's
// error (with the stack attached) under the same lowest-index rule.
//
// Cancelling ctx stops dispatch: jobs not yet started never start — in
// every mode, so the dispatched prefix is the same shape sequentially and
// in parallel — while jobs already in flight drain cleanly (the pool joins
// before returning). A cancelled run reports the context's error rather
// than any individual job's.
func mapOrdered[T any](ctx context.Context, n, workers int, fn func(int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("experiments: sweep cancelled after %d of %d jobs: %w", i, n, ctx.Err())
			}
			v, err := recovered(i, fn)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			out[i] = v
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				started.Add(1)
				out[i], errs[i] = recovered(i, fn)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("experiments: sweep cancelled after %d of %d jobs: %w", started.Load(), n, ctx.Err())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
