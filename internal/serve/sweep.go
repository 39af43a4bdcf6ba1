package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Sweep execution. A sweep is the flat point×seed job grid of one spec,
// run by the same executor as `ibsim run` (experiments.Stream): each job
// runs under the retry/deadline policy with panics contained, completed
// results journal to the checkpoint, and rows stream to the client in
// grid order as points finish. The streamed bytes match `ibsim run -format
// jsonl` of the same spec exactly — header, row order, cell formatting —
// with one addition: failed points become {"type":"error",...} lines and
// an interrupted sweep ends with an error trailer instead of silently
// truncating.

// jsonlError is the row-level error line. A failed point contributes one
// of these at the position its row would have occupied; point -1 marks a
// sweep-level error (interruption, reduce failure).
type jsonlError struct {
	Type  string   `json:"type"`
	ID    string   `json:"id"`
	Point int      `json:"point"`
	Label []string `json:"labels,omitempty"`
	Error string   `json:"error"`
}

// memoKey derives the checkpoint/memo identity of one sweep: the spec's
// canonical hash plus everything else that determines its results — the
// run options and the code version. Two requests share results if and
// only if they share a key.
func memoKey(spec experiments.Spec, opts experiments.Options) (string, error) {
	sh, err := experiments.SpecHash(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|measure=%d|warmup=%d|seeds=%v|code=%s",
		sh, opts.Measure, opts.Warmup, opts.Seeds, codeVersion))
	return hex.EncodeToString(sum[:]), nil
}

// flushWriter flushes every write through to the client, so each JSONL
// line — one encoder write — streams as soon as it is written.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// runSweep executes one admitted sweep and streams its table to w.
func (s *Server) runSweep(w http.ResponseWriter, r *http.Request, spec experiments.Spec, opts experiments.Options) {
	d := experiments.DefinitionFor(spec)
	rps, err := spec.Resolve()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nseeds := len(opts.Seeds)
	njobs := len(rps) * nseeds

	key, err := memoKey(spec, opts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Serialize identical concurrent sweeps: the loser of the race resumes
	// from (or memo-reads) whatever the winner journaled.
	var log *checkpointLog
	done := map[int]experiments.Result{}
	if s.cfg.CheckpointDir != "" {
		unlock := s.lockKey(key)
		defer unlock()
		log, done, err = openCheckpoint(s.cfg.CheckpointDir, key, njobs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer log.close()
		if len(done) == 0 {
			writeSpec(s.cfg.CheckpointDir, key, spec)
		}
	}
	if n := len(done); n > 0 {
		s.jobsResumed.Add(uint64(n))
		if n == njobs {
			s.memoHits.Add(1)
		}
	}

	// dispatch gates claiming new jobs: cancelled by server drain or the
	// client going away. jobCtx is what running jobs see: it additionally
	// survives graceful drain, falling only to the hard-cancel deadline.
	dispatch, cancelDispatch := mergedContext(r.Context(), s.dispatchCtx)
	defer cancelDispatch()
	jobCtx, cancelJobs := mergedContext(r.Context(), s.hardCtx)
	defer cancelJobs()

	// run serves journaled jobs from memory and runs the rest. A failed
	// job stays out of the journal so a re-POST retries it; one that fails
	// after dispatch stopped is an interruption, which Stream does not
	// count either, and a resume re-runs it.
	var logMu sync.Mutex // the workers journal concurrently
	run := func(job int) (experiments.Result, error) {
		if res, ok := done[job]; ok {
			return res, nil
		}
		res, err := s.runJob(jobCtx, rps[job/nseeds].Point, opts, opts.Seeds[job%nseeds])
		if err != nil {
			if dispatch.Err() == nil {
				s.jobsFailed.Add(1)
			}
			return res, err
		}
		s.jobsRun.Add(1)
		logMu.Lock()
		defer logMu.Unlock()
		if log != nil && log.append(job, res) != nil {
			// Journal trouble degrades to recompute-on-resume; the
			// stream itself is still good.
			log = nil
		}
		return res, nil
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := flushWriter{w}
	enc := json.NewEncoder(out)
	// No more workers than jobs left to run: a memo replay, with nothing
	// to simulate, streams on this goroutine instead of starting a pool.
	workers := min(s.cfg.Workers, njobs-len(done))
	completed := experiments.Stream(dispatch, d, rps, opts.Seeds, workers, run, experiments.NewJSONLSink(out),
		func(point int, err error) {
			var labels []string
			if point >= 0 {
				labels = rps[point].Labels
			}
			enc.Encode(jsonlError{Type: "error", ID: d.ID, Point: point, Label: labels, Error: err.Error()})
		})
	if completed < njobs {
		enc.Encode(jsonlError{Type: "error", ID: d.ID, Point: -1, Error: fmt.Sprintf(
			"sweep interrupted after %d of %d jobs (%v); completed jobs are checkpointed — re-POST the spec to resume",
			completed, njobs, cause(jobCtx, dispatch))})
	}
}

// cause picks the most informative cancellation reason.
func cause(jobCtx, dispatch context.Context) error {
	if err := jobCtx.Err(); err != nil {
		return fmt.Errorf("hard-cancelled: %w", err)
	}
	if err := dispatch.Err(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return errors.New("dispatch stopped")
}

// runJob runs one (point, seed) job under the retry policy: transient
// failures back off and retry up to MaxRetries times; terminal failures
// and parent cancellation return immediately.
func (s *Server) runJob(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.safeRun(ctx, p, opts, seed)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil || !IsTransient(err) || attempt >= s.cfg.Retry.MaxRetries {
			return res, err
		}
		s.retries.Add(1)
		if d := s.cfg.Retry.Backoff(attempt + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return res, err
			}
		}
	}
}

// safeRun executes one job attempt: the per-job deadline applies, and a
// panic anywhere inside the simulation becomes a terminal job error
// carrying the stack instead of taking down the process.
func (s *Server) safeRun(parent context.Context, p experiments.Point, opts experiments.Options, seed uint64) (res experiments.Result, err error) {
	ctx := parent
	cancel := context.CancelFunc(func() {})
	if s.cfg.JobDeadline > 0 {
		ctx, cancel = context.WithTimeout(parent, s.cfg.JobDeadline)
	}
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = Terminal(fmt.Errorf("serve: job (seed %d) panicked: %v\n%s", seed, r, debug.Stack()))
		}
	}()
	res, err = s.cfg.Runner(ctx, p, opts, seed)
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) && parent.Err() == nil {
		err = fmt.Errorf("serve: job deadline %v exceeded: %w", s.cfg.JobDeadline, context.DeadlineExceeded)
	}
	return res, err
}

// mergedContext derives a context cancelled when either parent is. The
// returned stop function releases the watcher and cancels the child.
func mergedContext(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	unhook := context.AfterFunc(b, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}
