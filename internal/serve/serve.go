// Package serve turns the simulator into a long-lived, crash-safe
// experiment service: ibsim serve ingests declarative experiment specs
// (the exact JSON `ibsim run -spec` consumes) over HTTP, runs the
// point×seed job grid through the same executor as `ibsim run`
// (experiments.Stream), and streams the reduced table as JSON lines —
// byte-identical to `ibsim run -format jsonl` of the same spec.
//
// Robustness is the package's reason to exist, not a bolt-on:
//
//   - Per-job panic isolation: a poisoned grid point fails its own row
//     (with the stack attached) instead of the process.
//   - Per-job deadlines, with bounded retry/backoff for an attempt whose
//     deadline expired; any other failure (validation, a panic) would
//     recur, so it fails the job at once.
//   - Bounded admission: at most MaxRunning sweeps run while MaxQueued
//     wait; beyond that the server sheds load with 429 + Retry-After
//     instead of accumulating unbounded work.
//   - Checkpointed sweeps: completed jobs journal under the sweep's memo
//     key (SpecHash + run options + code version), so a crashed-and-
//     restarted or re-POSTed sweep resumes from the last completed job,
//     and a fully journaled sweep is served from memo without simulating.
//   - Graceful drain: Shutdown stops admission, lets in-flight jobs
//     finish inside a drain deadline (checkpointing each), then hard-
//     cancels whatever remains via the engines' interrupt checks.
//
// DESIGN.md "The service layer" documents the contracts.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/units"
)

// maxSpecBytes bounds a POSTed spec. The largest committed spec is ~4 KiB;
// a megabyte of headroom admits any plausible hand-authored sweep while
// keeping a hostile body from ballooning memory.
const maxSpecBytes = 1 << 20

// JobRunner executes one (point, seed) job. The default wraps
// experiments.Run with the job's context threaded into Options; tests
// substitute flaky or blocking runners to drive the retry, deadline and
// drain paths.
type JobRunner func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error)

// Config parameterizes a Server. The zero value is usable: defaults are
// filled by New.
type Config struct {
	// CheckpointDir persists completed job results for resume/memo.
	// Empty disables checkpointing (every sweep recomputes).
	CheckpointDir string
	// MaxRunning bounds concurrently executing sweeps (default 2).
	MaxRunning int
	// MaxQueued bounds sweeps waiting for a run slot (default 8); beyond
	// it POSTs are shed with 429.
	MaxQueued int
	// JobDeadline caps one job attempt's wall-clock time; an expired
	// deadline aborts the simulation at its next interrupt poll, and the
	// attempt is retried under Retry. 0 = no deadline.
	JobDeadline time.Duration
	// Retry bounds the retries of attempts whose JobDeadline expired, the
	// only failure serve retries (default: DefaultRetryPolicy).
	Retry RetryPolicy
	// Workers sizes each sweep's job pool (default GOMAXPROCS).
	Workers int
	// Runner overrides job execution (tests). Nil = experiments.Run.
	Runner JobRunner
}

// Stats is the /stats snapshot.
type Stats struct {
	SweepsAdmitted  uint64 `json:"sweeps_admitted"`
	SweepsCompleted uint64 `json:"sweeps_completed"`
	SweepsShed      uint64 `json:"sweeps_shed"`
	MemoHits        uint64 `json:"memo_hits"`
	JobsRun         uint64 `json:"jobs_run"`
	JobsResumed     uint64 `json:"jobs_resumed"`
	JobsFailed      uint64 `json:"jobs_failed"`
	Retries         uint64 `json:"retries"`
	Panics          uint64 `json:"panics"`
	Running         int64  `json:"running"`
	Queued          int64  `json:"queued"`
	Draining        bool   `json:"draining"`
}

// Server is the experiment service. Construct with New; it implements
// http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	slots   chan struct{} // running-sweep tokens
	queued  atomic.Int64  // sweeps waiting for a token
	running atomic.Int64

	draining atomic.Bool
	// dispatchCtx gates starting NEW jobs; cancelled when drain begins so
	// in-flight sweeps stop dispatching but finish what they started.
	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc
	// hardCtx is the drain deadline: cancelled when the grace period
	// expires, aborting in-flight jobs via the engine interrupt.
	hardCtx    context.Context
	hardCancel context.CancelFunc
	sweeps     sync.WaitGroup

	keyMu   sync.Mutex
	keyRefs map[string]*keyLock

	sweepsAdmitted, sweepsCompleted, sweepsShed atomic.Uint64
	memoHits                                    atomic.Uint64
	jobsRun, jobsResumed, jobsFailed            atomic.Uint64
	retries, panics                             atomic.Uint64
}

type keyLock struct {
	mu   sync.Mutex
	refs int
}

// New builds a Server, filling Config defaults.
func New(cfg Config) (*Server, error) {
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 2
	}
	if cfg.MaxQueued < 0 {
		return nil, fmt.Errorf("serve: max queued must be non-negative, got %d", cfg.MaxQueued)
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 8
	}
	if cfg.Retry == (RetryPolicy{}) {
		cfg.Retry = DefaultRetryPolicy()
	}
	if err := cfg.Retry.validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Runner == nil {
		cfg.Runner = func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
			opts.Ctx = ctx
			return experiments.Run(p, opts, seed)
		}
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		slots:   make(chan struct{}, cfg.MaxRunning),
		keyRefs: make(map[string]*keyLock),
	}
	s.dispatchCtx, s.dispatchCancel = context.WithCancel(context.Background())
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s, nil
}

// retryAfter is the hint returned with 429 responses.
const retryAfter = 2 * time.Second

// codeVersion tags the memo key so checkpoints never survive a model
// change: the binary's VCS revision, else "dev".
var codeVersion = buildVersion()

func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	return "dev"
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		SweepsAdmitted:  s.sweepsAdmitted.Load(),
		SweepsCompleted: s.sweepsCompleted.Load(),
		SweepsShed:      s.sweepsShed.Load(),
		MemoHits:        s.memoHits.Load(),
		JobsRun:         s.jobsRun.Load(),
		JobsResumed:     s.jobsResumed.Load(),
		JobsFailed:      s.jobsFailed.Load(),
		Retries:         s.retries.Load(),
		Panics:          s.panics.Load(),
		Running:         s.running.Load(),
		Queued:          s.queued.Load(),
		Draining:        s.draining.Load(),
	}
}

// Shutdown drains the server: admission stops immediately (healthz turns
// 503, POSTs are refused), active sweeps stop dispatching new jobs, and
// in-flight jobs get up to drain to finish — each checkpointed as it
// completes. Past the deadline, remaining jobs are hard-cancelled through
// the engines' interrupt checks. Shutdown returns once every sweep has
// unwound; it is safe to call more than once.
func (s *Server) Shutdown(drain time.Duration) {
	s.draining.Store(true)
	s.dispatchCancel()
	done := make(chan struct{})
	go func() {
		s.sweeps.Wait()
		close(done)
	}()
	t := time.NewTimer(drain)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		s.hardCancel()
		<-done
	}
	s.hardCancel()
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "serve: POST a spec to /run", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "serve: draining, not admitting sweeps", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: reading spec: %v", err), http.StatusBadRequest)
		return
	}
	// ParseSpec both rejects unknown fields and validates; its errors name
	// the offending field, which is exactly what a 400 should carry.
	spec, err := experiments.ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts, err := runOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admit(w, r) {
		return
	}
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.slots
		s.sweeps.Done()
	}()
	s.sweepsAdmitted.Add(1)
	s.runSweep(w, r, spec, opts)
	s.sweepsCompleted.Add(1)
}

// admit implements bounded admission: a request takes a free run slot at
// once; otherwise at most MaxQueued requests wait for one of the
// MaxRunning slots, and everything beyond is shed with 429 and a
// Retry-After hint. On success the caller holds a slot and is counted in
// the drain WaitGroup.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.slots <- struct{}{}:
	default:
		if !s.wait(w, r) {
			return false
		}
	}
	// A slot can be won in the same instant drain begins; a sweep
	// admitted now would only stream an interruption trailer.
	if s.draining.Load() {
		<-s.slots
		http.Error(w, "serve: draining, not admitting sweeps", http.StatusServiceUnavailable)
		return false
	}
	// The slot is held; register with the drain group before returning so
	// Shutdown cannot miss this sweep.
	s.sweeps.Add(1)
	return true
}

// wait queues a request that found every run slot taken until one frees,
// shedding it when MaxQueued requests already wait. It reports whether
// the request now holds a slot.
func (s *Server) wait(w http.ResponseWriter, r *http.Request) bool {
	if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
		s.queued.Add(-1)
		s.sweepsShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		http.Error(w, fmt.Sprintf("serve: admission queue full (%d waiting, %d running); retry later",
			s.cfg.MaxQueued, s.cfg.MaxRunning), http.StatusTooManyRequests)
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	case <-s.dispatchCtx.Done():
		http.Error(w, "serve: draining, not admitting sweeps", http.StatusServiceUnavailable)
		return false
	}
}

// runOptions resolves the run options: the `ibsim run` defaults
// (experiments.DefaultOptions), overridden by the measure/warmup/seeds
// query parameters, so a plain POST matches a plain CLI run.
func runOptions(r *http.Request) (experiments.Options, error) {
	q := r.URL.Query()
	opts := experiments.DefaultOptions()
	if v := q.Get("measure"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return experiments.Options{}, fmt.Errorf("serve: query measure %q must be a positive duration", v)
		}
		opts.Measure = units.Duration(d.Nanoseconds()) * units.Nanosecond
	}
	if v := q.Get("warmup"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return experiments.Options{}, fmt.Errorf("serve: query warmup %q must be a non-negative duration", v)
		}
		opts.Warmup = units.Duration(d.Nanoseconds()) * units.Nanosecond
	}
	if v := q.Get("seeds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return experiments.Options{}, fmt.Errorf("serve: query seeds %q must be a positive integer", v)
		}
		opts.Seeds = nil
		for i := 1; i <= n; i++ {
			opts.Seeds = append(opts.Seeds, uint64(i))
		}
	}
	return opts, nil
}

// lockKey serializes sweeps sharing a memo key: concurrent identical
// POSTs would race on one journal, so the second waits — and then finds
// the first's results checkpointed, turning into a resume or memo hit.
func (s *Server) lockKey(key string) (unlock func()) {
	s.keyMu.Lock()
	l := s.keyRefs[key]
	if l == nil {
		l = &keyLock{}
		s.keyRefs[key] = l
	}
	l.refs++
	s.keyMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.keyMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(s.keyRefs, key)
		}
		s.keyMu.Unlock()
	}
}
