package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/units"
)

// Executor robustness tests: panic containment, error attribution and
// context cancellation in both execution modes. The service layer
// (internal/serve) and ibsim run's ^C handling both stand on these
// contracts, since both run their sweeps through Stream.

// streamGrid is a generic definition over n points, for driving Stream
// with fake jobs; a job's Result.Total becomes its bulk_total_gbps cell.
func streamGrid(n int) (Definition, []ResolvedPoint) {
	rps := make([]ResolvedPoint, n)
	for i := range rps {
		rps[i].Labels = []string{fmt.Sprint(i)}
	}
	return Definition{ID: "streamtest", Spec: Spec{Collect: []string{"bulk_total_gbps"}}}, rps
}

// recordSink keeps the rows Stream writes and whether it ended the table.
type recordSink struct {
	rows  [][]string
	ended bool
}

func (s *recordSink) Begin(TableMeta) error    { return nil }
func (s *recordSink) Row(cells []string) error { s.rows = append(s.rows, cells); return nil }
func (s *recordSink) End() error               { s.ended = true; return nil }

// failure is one fail callback.
type failure struct {
	point int
	err   error
}

func TestStreamPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d, rps := streamGrid(8)
		var ran atomic.Int64
		var sink recordSink
		var fails []failure
		completed := Stream(nil, d, rps, []uint64{1}, workers, func(j int) (Result, error) {
			ran.Add(1)
			if j == 3 {
				panic(fmt.Sprintf("poisoned job %d", j))
			}
			return Result{Total: float64(j)}, nil
		}, &sink, func(p int, err error) { fails = append(fails, failure{p, err}) })
		if len(fails) != 1 || fails[0].point != 3 {
			t.Fatalf("workers=%d: want one failure at point 3, got %v", workers, fails)
		}
		err := fails[0].err
		if !strings.Contains(err.Error(), "job 3 panicked") || !strings.Contains(err.Error(), "poisoned job 3") {
			t.Fatalf("workers=%d: error lacks job index or panic value: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "runner_test.go") {
			t.Fatalf("workers=%d: error lacks the panic stack: %v", workers, err)
		}
		// Containment means the rest of the grid still runs and writes.
		if got := ran.Load(); got != 8 || completed != 8 {
			t.Fatalf("workers=%d: %d of 8 jobs ran, %d completed after the panic", workers, got, completed)
		}
		if len(sink.rows) != 7 || !sink.ended {
			t.Fatalf("workers=%d: want 7 rows and End around the failed point, got %d rows, ended=%v", workers, len(sink.rows), sink.ended)
		}
	}
}

// TestStreamLowestFailedSeedWins: a point failing on several seeds is
// reported once, in grid order, naming its lowest failed seed in every
// mode — even when a higher seed fails first — so the failure a caller
// sees does not depend on goroutine interleaving.
func TestStreamLowestFailedSeedWins(t *testing.T) {
	seeds := []uint64{11, 12}
	for _, workers := range []int{1, 4} {
		d, rps := streamGrid(4)
		var fails []failure
		Stream(nil, d, rps, seeds, workers, func(j int) (Result, error) {
			switch j {
			case 2: // point 1, seed 11: fails after seed 12 has
				time.Sleep(20 * time.Millisecond)
				return Result{}, errors.New("plain failure")
			case 3, 5: // point 1, seed 12; point 2, seed 12
				panic("boom")
			}
			return Result{}, nil
		}, &recordSink{}, func(p int, err error) { fails = append(fails, failure{p, err}) })
		if len(fails) != 2 {
			t.Fatalf("workers=%d: want one failure per failed point, got %v", workers, fails)
		}
		if fails[0].point != 1 || !strings.HasPrefix(fails[0].err.Error(), "seed 11: plain failure") {
			t.Fatalf("workers=%d: want point 1's seed 11 first, got point %d: %v", workers, fails[0].point, fails[0].err)
		}
		if fails[1].point != 2 || !strings.Contains(fails[1].err.Error(), "seed 12: experiments: job 5 panicked") {
			t.Fatalf("workers=%d: want point 2's seed 12 panic, got point %d: %v", workers, fails[1].point, fails[1].err)
		}
	}
}

func TestStreamCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 100
		d, rps := streamGrid(n)
		var ran atomic.Int64
		var sink recordSink
		completed := Stream(ctx, d, rps, []uint64{1}, workers, func(j int) (Result, error) {
			if ran.Add(1) == 5 {
				// An error after the cancel is an interruption: neither
				// counted nor reported as a failed point.
				cancel()
				return Result{}, ctx.Err()
			}
			return Result{}, nil
		}, &sink, func(p int, err error) { t.Errorf("workers=%d: point %d failed: %v", workers, p, err) })
		// Dispatch must stop promptly: only jobs already claimed when the
		// cancel landed may finish (at most one per worker beyond the 5).
		if got := ran.Load(); got >= n || int64(completed) != got-1 {
			t.Fatalf("workers=%d: dispatch did not stop: %d of %d jobs ran, %d completed", workers, got, n, completed)
		}
		if sink.ended {
			t.Fatalf("workers=%d: a cancelled sweep ended its table", workers)
		}
		cancel()
	}
}

// TestStreamCancelInLastJob: a cancel that lands inside the grid's last
// job leaves no job undone, so the sweep completes in both modes.
func TestStreamCancelInLastJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		d, rps := streamGrid(8)
		var sink recordSink
		completed := Stream(ctx, d, rps, []uint64{1}, workers, func(j int) (Result, error) {
			if j == 7 {
				cancel()
			}
			return Result{}, nil
		}, &sink, func(p int, err error) { t.Errorf("workers=%d: point %d failed: %v", workers, p, err) })
		if completed != 8 || len(sink.rows) != 8 || !sink.ended {
			t.Fatalf("workers=%d: completed %d of 8 jobs, %d rows, ended=%v", workers, completed, len(sink.rows), sink.ended)
		}
	}
}

// TestStreamCancelledBeforeStart: under a cancelled context no job runs,
// in either mode, and RunSpec reports the cancellation with its progress.
func TestStreamCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		d, rps := streamGrid(10)
		var ran atomic.Int64
		completed := Stream(ctx, d, rps, []uint64{1}, workers, func(j int) (Result, error) {
			ran.Add(1)
			return Result{}, nil
		}, &recordSink{}, func(int, error) {})
		if got := ran.Load(); got != 0 || completed != 0 {
			t.Fatalf("workers=%d: %d jobs ran, %d completed under a pre-cancelled context", workers, got, completed)
		}
		spec, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"star"},"workload":[{"kind":"lsg"}]},"sweep":[{"field":"payload","payloads":[64,4096]}],"collect":["lsg_samples"]}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSpecGeneric(spec, Options{Measure: units.Millisecond, Seeds: []uint64{1, 2}, Parallel: workers, Ctx: ctx})
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "after 0 of 4 jobs") {
			t.Fatalf("workers=%d: want context.Canceled after 0 of 4 jobs, got %v", workers, err)
		}
	}
}

// TestRunCancelledBeforeStart: a run whose context is already cancelled
// fails at entry, before building a fabric.
func TestRunCancelledBeforeStart(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}]},"collect":["lsg_p50_us"]}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Measure: 1 * units.Millisecond, Seeds: []uint64{1}, Ctx: ctx}
	_, err = Run(*spec.Base, opts, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from a cancelled run, got %v", err)
	}
}

// TestRunCancelledMidSimulation: cancelling Options.Ctx while the
// simulation executes reaches into the engine through the interrupt
// check — the run aborts at the next poll instead of completing its
// window (a 20-simulated-second window would take minutes of wall clock
// if the abort failed).
func TestRunCancelledMidSimulation(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}]},"collect":["lsg_p50_us"]}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	opts := Options{
		Measure: 20 * units.Second, // far beyond reach: only the abort ends this run
		Seeds:   []uint64{1},
		Ctx:     ctx,
	}
	start := time.Now()
	_, err = Run(*spec.Base, opts, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded from the aborted run, got %v", err)
	}
	if !strings.Contains(err.Error(), "cancelled at") {
		t.Fatalf("error does not report simulated progress: %v", err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("abort took %v of wall clock; the interrupt poll is not reaching the engine", wall)
	}
}

// TestRunSpecUncancelledUnchanged: threading a live context through a
// sweep must not perturb results — byte-determinism holds with and
// without Options.Ctx installed.
func TestRunSpecUncancelledUnchanged(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096},{"kind":"lsg"}]},"collect":["lsg_p50_us","lsg_p999_us","bulk_total_gbps"]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Measure: 300 * units.Microsecond, Seeds: []uint64{1, 2}}
	plain, err := RunSpecGeneric(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	withCtx, err := RunSpecGeneric(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != withCtx.String() {
		t.Fatalf("installing a live context changed the table:\n%s\nvs\n%s", plain, withCtx)
	}
}

// TestRunSpecRejectsBadOptions: options no sweep can reduce fail before
// any job runs, with an error naming the option, while the smallest
// window a caller can ask for (1 ns measured, no warmup) stays valid.
// The bad cases carry a cancelled context, so a check made after dispatch
// would report the cancellation instead.
func TestRunSpecRejectsBadOptions(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"star"},"workload":[{"kind":"lsg"}]},"collect":["lsg_samples"]}`))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	seeds := []uint64{1, 2, 3}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Measure: units.Millisecond}, "seeds"},
		{Options{Measure: units.Millisecond, Seeds: []uint64{}}, "seeds"},
		{Options{Seeds: seeds}, "measure"},
		{Options{Measure: -units.Millisecond, Seeds: seeds}, "measure"},
		{Options{Measure: units.Millisecond, Warmup: -1, Seeds: seeds}, "warmup"},
	} {
		tc.opts.Ctx = cancelled
		if _, err := RunSpecGeneric(spec, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got error %v, want one naming %q", tc.opts, err, tc.want)
		}
	}
	if _, err := RunSpecGeneric(spec, Options{Measure: units.Nanosecond, Seeds: seeds}); err != nil {
		t.Errorf("1 ns window, no warmup: %v", err)
	}
}
