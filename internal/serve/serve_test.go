package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/units"
)

// The service tests drive the full HTTP surface against httptest servers.
// Real simulations use tiny windows (?measure=300us) to stay fast; the
// failure-path tests (retry, deadline, panic, drain, shedding) substitute
// a hooked Runner so the failures are deterministic, not simulated.

// testSpec is a small two-point sweep on the paper's rack.
const testSpec = `{"id":"servetest","base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096},{"kind":"lsg"}]},"sweep":[{"field":"payload","payloads":[1024,4096]}],"collect":["lsg_p50_us","bulk_total_gbps"]}`

// testQuery keeps the simulated windows tiny.
const testQuery = "?measure=300us&warmup=100us&seeds=2"

// testOpts mirrors testQuery on the library side, for expected-output runs.
func testOpts() experiments.Options {
	return experiments.Options{
		Measure: 300 * units.Microsecond,
		Warmup:  100 * units.Microsecond,
		Seeds:   []uint64{1, 2},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post POSTs a spec and returns (status, body, header).
func post(t *testing.T, base, query, spec string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/run"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// cliJSONL renders the spec exactly as `ibsim run -format jsonl` would.
func cliJSONL(t *testing.T, spec string, opts experiments.Options) string {
	t.Helper()
	s, err := experiments.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := experiments.RunSpecGeneric(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Emit(experiments.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeStreamMatchesRunGeneric is the headline contract: the bytes a
// client receives from POST /run are exactly the bytes `ibsim run -spec
// ... -format jsonl` prints for the same spec and options.
func TestServeStreamMatchesRunGeneric(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, hdr := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if want := cliJSONL(t, testSpec, testOpts()); body != want {
		t.Fatalf("served stream differs from ibsim run:\n--- serve ---\n%s--- run ---\n%s", body, want)
	}
}

// TestServeStreamMatchesRunRegistered covers the other table layout: a
// registered definition with a custom Reduce (rows are a function of the
// whole grid, so the service buffers instead of streaming per point).
func TestServeStreamMatchesRunRegistered(t *testing.T) {
	spec := strings.Replace(testSpec, `"id":"servetest"`, `"id":"servetest_wide"`, 1)
	parsed, err := experiments.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	experiments.Register(experiments.Definition{
		ID:      "servetest_wide",
		Title:   "serve test: wide layout",
		Columns: []string{"points", "first_p50_us"},
		Spec:    parsed,
		Reduce: func(tbl *experiments.Table, pts []experiments.PointResult) error {
			p50, err := experiments.FormatMetric("lsg_p50_us", pts[0].M)
			tbl.AddRow(fmt.Sprint(len(pts)), p50)
			return err
		},
	})
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts.URL, testQuery, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if want := cliJSONL(t, spec, testOpts()); body != want {
		t.Fatalf("served stream differs from ibsim run (registered layout):\n--- serve ---\n%s--- run ---\n%s", body, want)
	}
	if !strings.Contains(body, `"first_p50_us"`) {
		t.Fatalf("registered columns missing from header: %s", body)
	}
}

// TestServeBadSpec400: malformed specs bounce with 400 and an error
// naming the offending field — the same classifier errors the spec tests
// pin for ParseSpec.
func TestServeBadSpec400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ name, spec, want string }{
		{"unknown top-level key", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}]},"collect":["lsg_p50_us"],"bogus":1}`, `unknown field "bogus"`},
		{"unknown policy", `{"base":{"topology":{"kind":"star"},"policy":"wfq","workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`, "wfq"},
		{"unknown metric", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_uss"]}`, "lsg_p50_uss"},
		{"not json", `{`, "spec:"},
	}
	for _, tc := range cases {
		status, body, _ := post(t, ts.URL, "", tc.spec)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", tc.name, status, body)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %q does not name the problem (%q)", tc.name, body, tc.want)
		}
	}
	// Bad query parameters are client errors too.
	status, body, _ := post(t, ts.URL, "?seeds=0", testSpec)
	if status != http.StatusBadRequest || !strings.Contains(body, "seeds") {
		t.Errorf("seeds=0: status %d body %q", status, body)
	}
	// And GET is not how you run an experiment.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// blockingRunner returns a Runner that parks every job until release is
// closed (or its context dies), plus a counter of jobs entered.
func blockingRunner(release <-chan struct{}) (JobRunner, *atomic.Int64) {
	var entered atomic.Int64
	return func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		entered.Add(1)
		select {
		case <-release:
			return experiments.Result{}, nil
		case <-ctx.Done():
			return experiments.Result{}, ctx.Err()
		}
	}, &entered
}

// TestServeQueueFull429: with one run slot and one queue slot, a third
// concurrent sweep is shed with 429 + Retry-After while the in-flight
// ones complete untouched.
func TestServeQueueFull429(t *testing.T) {
	release := make(chan struct{})
	runner, entered := blockingRunner(release)
	srv, ts := newTestServer(t, Config{MaxRunning: 1, MaxQueued: 1, Workers: 1, Runner: runner})

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body, _ := post(t, ts.URL, testQuery, testSpec)
			replies <- reply{status, body}
		}()
	}
	// Wait until one sweep is running (its first job entered the runner)
	// and the other occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() == 0 || srv.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeps did not reach running+queued: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	status, body, hdr := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third sweep: status %d, want 429 (body %q)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("429 body %q does not explain the shed", body)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("in-flight sweep finished with %d: %s", r.status, r.body)
		}
		if !strings.Contains(r.body, `"type":"table"`) {
			t.Fatalf("in-flight sweep body lacks the table header: %s", r.body)
		}
	}
	if st := srv.Stats(); st.SweepsShed != 1 || st.SweepsCompleted != 2 {
		t.Fatalf("stats after shedding: %+v", st)
	}
}

// TestServeDeadlineRowError: a job that blows its per-job deadline (and
// its retries) fails its own row — an error line in the stream — while
// the rest of the grid completes normally.
func TestServeDeadlineRowError(t *testing.T) {
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if p.Workload[0].Payload == 1024 { // first grid point hangs
			<-ctx.Done()
			return experiments.Result{}, ctx.Err()
		}
		return experiments.Result{Total: 42}, nil
	}
	srv, ts := newTestServer(t, Config{
		JobDeadline: 20 * time.Millisecond,
		Retry:       RetryPolicy{MaxRetries: 1, BaseDelay: time.Millisecond},
		Workers:     1,
		Runner:      runner,
	})
	status, body, _ := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 { // header, point-0 error, point-1 row
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[1], `"type":"error"`) || !strings.Contains(lines[1], "deadline") {
		t.Fatalf("point 0 did not fail with a deadline error line: %s", lines[1])
	}
	if !strings.Contains(lines[1], `"point":0`) || !strings.Contains(lines[1], `"1KB"`) {
		t.Fatalf("error line does not identify the failed point: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"type":"row"`) || !strings.Contains(lines[2], "42.00") {
		t.Fatalf("healthy point did not produce its row: %s", lines[2])
	}
	st := srv.Stats()
	if st.JobsFailed != 2 { // both seeds of the hanging point
		t.Errorf("jobs failed = %d, want 2", st.JobsFailed)
	}
	if st.Retries != 2 { // each failed job retried once (deadline is transient)
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

// TestServeTransientRetry: a job whose attempts run out of their deadline
// succeeds on retry and the stream comes out clean.
func TestServeTransientRetry(t *testing.T) {
	var calls atomic.Int64
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if calls.Add(1) <= 2 {
			<-ctx.Done() // wait out the job deadline
			return experiments.Result{}, ctx.Err()
		}
		return experiments.Result{Total: 7}, nil
	}
	srv, ts := newTestServer(t, Config{
		JobDeadline: 20 * time.Millisecond,
		Retry:       RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond},
		Workers:     1,
		Runner:      runner,
	})
	status, body, _ := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if strings.Contains(body, `"type":"error"`) {
		t.Fatalf("transient failures leaked into the stream:\n%s", body)
	}
	st := srv.Stats()
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
	if st.JobsFailed != 0 {
		t.Errorf("jobs failed = %d, want 0", st.JobsFailed)
	}
}

// TestServeTerminalNoRetry: only an attempt whose own deadline expired
// retries; a runner error that merely wraps context.DeadlineExceeded fails
// its job at once.
func TestServeTerminalNoRetry(t *testing.T) {
	var calls atomic.Int64
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		calls.Add(1)
		return experiments.Result{}, fmt.Errorf("bad point: %w", context.DeadlineExceeded)
	}
	srv, ts := newTestServer(t, Config{
		Retry:   RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond},
		Workers: 1,
		Runner:  runner,
	})
	status, body, _ := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if got := calls.Load(); got != 4 { // 2 points x 2 seeds, one attempt each
		t.Errorf("runner called %d times, want 4 (terminal errors must not retry)", got)
	}
	if st := srv.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d, want 0", st.Retries)
	}
	if c := strings.Count(body, `"type":"error"`); c != 2 {
		t.Errorf("want 2 error lines (one per point), got %d:\n%s", c, body)
	}
}

// TestServePanicIsolation: a panicking job fails only its own row; the
// server keeps serving.
func TestServePanicIsolation(t *testing.T) {
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if p.Workload[0].Payload == 4096 && seed == 2 {
			panic("poisoned grid point")
		}
		return experiments.Result{Total: 1}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Runner: runner})
	status, body, _ := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines (header, row, error), got %d:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[1], `"type":"row"`) {
		t.Fatalf("healthy point 0 did not stream its row first: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"type":"error"`) || !strings.Contains(lines[2], "panicked") || !strings.Contains(lines[2], "seed 2") {
		t.Fatalf("poisoned point's error line wrong: %s", lines[2])
	}
	if st := srv.Stats(); st.Panics != 1 || st.JobsFailed != 1 {
		t.Errorf("stats after panic: %+v", st)
	}
	// The server survived: the next sweep runs fine.
	if status, _, _ := post(t, ts.URL, testQuery, strings.Replace(testSpec, "4096]", "2048]", 1)); status != http.StatusOK {
		t.Fatalf("server unhealthy after a contained panic: %d", status)
	}
}

// TestServeResumeAfterRestart is the crash-safety acceptance test. Server
// A journals part of the grid and dies (modeled by a runner that fails
// terminally after k jobs — the journal is identical to one left by a
// SIGKILL after k appends, which TestCheckpointTornTail covers at the
// byte level). Server B, pointed at the same checkpoint dir, re-serves
// the sweep: it re-runs only the missing jobs and streams bytes
// identical to an uninterrupted run. A third POST is a pure memo hit.
func TestServeResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	want := cliJSONL(t, testSpec, testOpts())

	// Server A: the real simulation for the first 2 jobs, then "crash".
	var calls atomic.Int64
	real := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		opts.Ctx = ctx
		return experiments.Run(p, opts, seed)
	}
	crashy := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if calls.Add(1) > 2 {
			return experiments.Result{}, errors.New("injected crash")
		}
		return real(ctx, p, opts, seed)
	}
	srvA, tsA := newTestServer(t, Config{CheckpointDir: dir, Workers: 1, Runner: crashy})
	status, bodyA, _ := post(t, tsA.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("server A: status %d: %s", status, bodyA)
	}
	if !strings.Contains(bodyA, `"type":"error"`) {
		t.Fatalf("server A should have failed part of the grid:\n%s", bodyA)
	}
	if st := srvA.Stats(); st.JobsRun != 2 {
		t.Fatalf("server A journaled %d jobs, want 2", st.JobsRun)
	}
	tsA.Close()

	// Server B: fresh process, same checkpoint dir, healthy runner.
	srvB, tsB := newTestServer(t, Config{CheckpointDir: dir, Workers: 1, Runner: real})
	status, bodyB, _ := post(t, tsB.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("server B: status %d: %s", status, bodyB)
	}
	if bodyB != want {
		t.Fatalf("resumed sweep differs from an uninterrupted run:\n--- resumed ---\n%s--- fresh ---\n%s", bodyB, want)
	}
	st := srvB.Stats()
	if st.JobsResumed != 2 {
		t.Errorf("server B resumed %d jobs from the journal, want 2", st.JobsResumed)
	}
	if st.JobsRun != 2 { // 4-job grid minus the 2 checkpointed
		t.Errorf("server B ran %d jobs, want only the 2 missing", st.JobsRun)
	}

	// Third POST: the journal is complete, so this is a memo hit — zero
	// simulation, same bytes.
	status, bodyC, _ := post(t, tsB.URL, testQuery, testSpec)
	if status != http.StatusOK || bodyC != want {
		t.Fatalf("memo replay differs (status %d):\n%s", status, bodyC)
	}
	st = srvB.Stats()
	if st.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1", st.MemoHits)
	}
	if st.JobsRun != 2 {
		t.Errorf("memo replay ran %d extra jobs", st.JobsRun-2)
	}

	// Different options are a different sweep: no false memo sharing.
	status, bodyD, _ := post(t, tsB.URL, "?measure=200us&warmup=100us&seeds=2", testSpec)
	if status != http.StatusOK {
		t.Fatalf("re-optioned sweep: status %d", status)
	}
	if bodyD == want {
		t.Error("sweep with different options served the old memo")
	}
}

// TestServeDrain: Shutdown stops admission (healthz 503, POST 503), lets
// in-flight jobs finish within the grace period, and past it hard-cancels
// them; the interrupted sweep ends with an error trailer telling the
// client to resume.
func TestServeDrain(t *testing.T) {
	release := make(chan struct{})
	runner, entered := blockingRunner(release)
	defer close(release)
	srv, ts := newTestServer(t, Config{CheckpointDir: t.TempDir(), Workers: 1, Runner: runner})

	bodyc := make(chan string, 1)
	go func() {
		_, body, _ := post(t, ts.URL, testQuery, testSpec)
		bodyc <- body
	}()
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Shutdown(50 * time.Millisecond) // the blocked job outlives the grace period
	}()
	// Admission must close as soon as draining begins.
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if status, _, _ := post(t, ts.URL, testQuery, testSpec); status != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: status %d, want 503", status)
	}
	wg.Wait() // the drain deadline hard-cancels the parked job

	body := <-bodyc
	if !strings.Contains(body, "interrupted") || !strings.Contains(body, "resume") {
		t.Fatalf("drained sweep lacks the resume trailer:\n%s", body)
	}
	if st := srv.Stats(); !st.Draining {
		t.Error("stats do not report draining")
	}
}

// TestServeStatsEndpoint: /stats serves the counters as JSON.
func TestServeStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body, _ := post(t, ts.URL, testQuery, testSpec); status != http.StatusOK {
		t.Fatalf("warmup sweep failed: %d %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, key := range []string{`"sweeps_admitted": 1`, `"jobs_run": 4`, `"sweeps_shed": 0`} {
		if !strings.Contains(string(body), key) {
			t.Errorf("stats missing %s:\n%s", key, body)
		}
	}
}

// TestServeErrorLineNamesLowestSeed: a point failing on several seeds
// names its lowest failed seed, not whichever failure finished first.
func TestServeErrorLineNamesLowestSeed(t *testing.T) {
	seed2Failed := make(chan struct{})
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if p.Workload[0].Payload != 1024 {
			return experiments.Result{Total: 1}, nil
		}
		if seed == 2 {
			defer close(seed2Failed)
		} else {
			// Seed 1 fails well after seed 2.
			select {
			case <-seed2Failed:
			case <-ctx.Done():
			}
			time.Sleep(50 * time.Millisecond)
		}
		return experiments.Result{}, fmt.Errorf("bad seed %d", seed)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: runner})
	status, body, _ := post(t, ts.URL, testQuery, testSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 { // header, point-0 error, point-1 row
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[1], `"point":0`) || !strings.Contains(lines[1], `"error":"seed 1: bad seed 1"`) {
		t.Fatalf("error line does not name point 0's lowest failed seed: %s", lines[1])
	}
}

// TestServeStreamsRowsBeforeGridCompletes: a generic-layout row reaches
// the client as soon as its point completes. Point 1 is parked until the
// client has read point 0's row, so a server that held rows back would
// never finish; the client timeout fails the test instead.
func TestServeStreamsRowsBeforeGridCompletes(t *testing.T) {
	row0Read := make(chan struct{})
	runner := func(ctx context.Context, p experiments.Point, opts experiments.Options, seed uint64) (experiments.Result, error) {
		if p.Workload[0].Payload == 4096 {
			select {
			case <-row0Read:
			case <-ctx.Done():
				return experiments.Result{}, ctx.Err()
			}
		}
		return experiments.Result{Total: 1}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/run"+testQuery, "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for _, want := range []string{`"type":"table"`, `"type":"row"`} {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the %s line before point 1 completed: %v", want, err)
		}
		if !strings.Contains(line, want) {
			t.Fatalf("want a %s line, got %s", want, line)
		}
	}
	close(row0Read)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(rest)), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"type":"row"`) {
		t.Fatalf("want point 1's row to end the stream, got:\n%s", rest)
	}
}

// TestRunOptionsDefaultToRun: a request without query parameters runs
// with `ibsim run`'s defaults, and each parameter overrides its own knob,
// a zero warmup included.
func TestRunOptionsDefaultToRun(t *testing.T) {
	opts, err := runOptions(httptest.NewRequest(http.MethodPost, "/run", nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.DefaultOptions(); !reflect.DeepEqual(opts, want) {
		t.Fatalf("plain POST runs %+v, want the ibsim run defaults %+v", opts, want)
	}
	opts, err = runOptions(httptest.NewRequest(http.MethodPost, "/run?warmup=0", nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.DefaultOptions(); opts.Warmup != 0 || opts.Measure != want.Measure || !reflect.DeepEqual(opts.Seeds, want.Seeds) {
		t.Fatalf("?warmup=0 runs %+v, want the defaults with no warmup", opts)
	}
}
