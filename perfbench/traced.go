package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// grid is one table's resolved points and its per-job results in RunSpec
// job order (point-major, then seed).
type grid struct {
	points  []experiments.ResolvedPoint
	results []experiments.Result
}

// resolve validates and resolves a spec inside an experiments.resolve span.
func resolve(rec *recorder, parent int, s experiments.Spec) ([]experiments.ResolvedPoint, error) {
	id := rec.begin("experiments.resolve", parent)
	defer rec.end(id)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Resolve()
}

// reduce assembles a grid's table and streams it as JSONL inside an
// experiments.reduce span: ReduceSeeds per point, AssembleInto, the sink.
func reduce(rec *recorder, parent int, def experiments.Definition, g grid, nseeds int, sink experiments.Sink) error {
	id := rec.begin("experiments.reduce", parent)
	defer rec.end(id)
	pts := make([]experiments.PointResult, len(g.points))
	for i, rp := range g.points {
		pts[i] = experiments.PointResult{
			Point:  rp.Point,
			Labels: rp.Labels,
			M:      experiments.ReduceSeeds(g.results[i*nseeds : (i+1)*nseeds]),
		}
	}
	t := experiments.TableShell(def)
	if err := experiments.AssembleInto(t, def, pts); err != nil {
		return err
	}
	return t.Emit(sink)
}

// tracedDirect is RunSpec re-composed from its exported steps, with a span
// around each: resolve, one experiments.Run per job on the same number of
// workers, then reduce. Its output must equal the timed pass's.
func tracedDirect(w *workloadSpec, opts experiments.Options, rec *recorder) (pass, []grid, error) {
	var grids []grid
	p, err := measured(func(start time.Time) (pass, error) {
		var p pass
		root := rec.begin("pass", 0)
		defer rec.end(root)
		nseeds := len(opts.Seeds)
		for _, t := range w.tables {
			rps, err := resolve(rec, root, t.def.Spec)
			if err != nil {
				return p, err
			}
			g := grid{points: rps, results: make([]experiments.Result, len(rps)*nseeds)}
			errs := make([]error, len(g.results))
			var next atomic.Int64
			var wg sync.WaitGroup
			for range min(opts.Parallel, len(g.results)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < len(g.results); i = int(next.Add(1)) - 1 {
						id := rec.begin("experiments.run", root)
						g.results[i], errs[i] = experiments.Run(rps[i/nseeds].Point, opts, opts.Seeds[i%nseeds])
						rec.end(id)
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return p, err
			}
			var buf bytes.Buffer
			sink := &clockSink{Sink: experiments.NewJSONLSink(&buf), start: start}
			if err := reduce(rec, root, t.def, g, nseeds, sink); err != nil {
				return p, err
			}
			if p.firstRow == 0 {
				p.firstRow = sink.first
			}
			p.wall = sink.last
			p.out = append(p.out, buf.Bytes())
			grids = append(grids, g)
		}
		return p, nil
	})
	return p, grids, err
}

// servedTrace is what the traced served pass observes of the service.
type servedTrace struct {
	stats     serve.Stats
	journalKB float64
	requests  []int // span ids of the cold requests
}

// capturedJob is one job the traced runner executed.
type capturedJob struct {
	point experiments.Point
	seed  uint64
	res   experiments.Result
}

// tracedServed POSTs every table cold to a fresh service whose runner is
// wrapped in serve.runner spans (children of the request in flight), then
// replays each from the memo once. Resolve and reduce run inside the
// service, so the benchmark repeats them on the captured job results
// under experiments.* spans; their output must equal the served stream.
func tracedServed(b *bench, rec *recorder) (pass, servedTrace, error) {
	var tr servedTrace
	var current atomic.Int64 // span id of the request in flight
	var mu sync.Mutex
	var jobs []capturedJob
	offset := b.seed - 1 // as bench.runner
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		id := rec.begin("serve.runner", int(current.Load()))
		opts.Ctx = ctx
		res, err := experiments.Run(p, opts, seed+offset)
		rec.end(id)
		if err == nil {
			mu.Lock()
			jobs = append(jobs, capturedJob{p, seed + offset, res})
			mu.Unlock()
		}
		return res, err
	}
	srv, err := startServer(b.dir, runner, b.workers)
	if err != nil {
		return pass{}, tr, err
	}
	p, err := measured(func(start time.Time) (pass, error) {
		var p pass
		root := rec.begin("pass", 0)
		defer rec.end(root)
		for _, t := range b.w.tables {
			id := rec.begin("serve.request", root)
			current.Store(int64(id))
			out, first, last, err := srv.post(t.body, "", start)
			rec.end(id)
			tr.requests = append(tr.requests, id)
			if err != nil {
				return p, fmt.Errorf("%s: %w", t.def.ID, err)
			}
			if p.firstRow == 0 {
				p.firstRow = first
			}
			p.wall = last
			p.out = append(p.out, out)
		}
		return p, nil
	})
	if err == nil {
		for i, t := range b.w.tables {
			id := rec.begin("serve.memo", 0)
			out, _, _, perr := srv.post(t.body, "", time.Now())
			rec.end(id)
			if perr == nil && !bytes.Equal(out, p.out[i]) {
				perr = fmt.Errorf("%s: memo replay differs from the cold stream", t.def.ID)
			}
			err = errors.Join(err, perr)
		}
	}
	tr.stats = srv.srv.Stats()
	tr.journalKB, _ = journalKB(srv.dir)
	err = errors.Join(err, srv.close())
	if err != nil {
		return p, tr, err
	}

	// Resolve and reduce the captured results as the service does.
	opts := b.paperOptions()
	nseeds := len(opts.Seeds)
	for i, t := range b.w.tables {
		rps, err := resolve(rec, 0, t.def.Spec)
		if err != nil {
			return p, tr, err
		}
		g := grid{points: rps, results: make([]experiments.Result, len(rps)*nseeds)}
		for j := range g.results {
			if g.results[j], err = findJob(jobs, rps[j/nseeds].Point, opts.Seeds[j%nseeds]); err != nil {
				return p, tr, fmt.Errorf("%s: %w", t.def.ID, err)
			}
		}
		var buf bytes.Buffer
		if err := reduce(rec, 0, t.def, g, nseeds, experiments.NewJSONLSink(&buf)); err != nil {
			return p, tr, err
		}
		if !bytes.Equal(buf.Bytes(), p.out[i]) {
			return p, tr, fmt.Errorf("%s: reducing the runner's results differs from the served stream", t.def.ID)
		}
	}
	return p, tr, nil
}

// findJob returns the captured result of (point, seed).
func findJob(jobs []capturedJob, p experiments.Point, seed uint64) (experiments.Result, error) {
	for _, j := range jobs {
		if j.seed == seed && reflect.DeepEqual(j.point, p) {
			return j.res, nil
		}
	}
	return experiments.Result{}, fmt.Errorf("no job ran for seed %d of point %+v", seed, p)
}

// journalKB sums the checkpoint journals under dir.
func journalKB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return float64(n) / 1024, nil
}
