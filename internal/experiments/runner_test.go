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

// Runner robustness tests: panic containment and context cancellation in
// both execution modes. The service layer (internal/serve) leans on these
// invariants, but they are contracts of the runner itself — ibsim run's
// ^C handling uses exactly the same paths.

func TestMapOrderedPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := mapOrdered(nil, 8, workers, func(i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				panic(fmt.Sprintf("poisoned job %d", i))
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as an error", workers)
		}
		if !strings.Contains(err.Error(), "job 3 panicked") || !strings.Contains(err.Error(), "poisoned job 3") {
			t.Fatalf("workers=%d: error lacks job index or panic value: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "runner_test.go") {
			t.Fatalf("workers=%d: error lacks the panic stack: %v", workers, err)
		}
		// Containment means the rest of the grid still runs.
		if got := ran.Load(); got != 8 {
			t.Fatalf("workers=%d: %d of 8 jobs ran after the panic", workers, got)
		}
	}
}

// TestMapOrderedPanicLowestIndexWins: with several poisoned jobs the
// reported error is the lowest-indexed one in every mode, so the failure
// a caller sees does not depend on goroutine interleaving.
func TestMapOrderedPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := mapOrdered(nil, 8, workers, func(i int) (int, error) {
			if i == 2 || i == 6 {
				panic("boom")
			}
			if i == 4 {
				return 0, errors.New("plain failure")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 2 panicked") {
			t.Fatalf("workers=%d: want job 2's panic, got %v", workers, err)
		}
	}
}

func TestMapOrderedCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 100
		_, err := mapOrdered(ctx, n, workers, func(i int) (int, error) {
			if ran.Add(1) == 5 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("of %d jobs", n)) {
			t.Fatalf("workers=%d: error lacks partial-progress report: %v", workers, err)
		}
		// Dispatch must stop promptly: only jobs already claimed when the
		// cancel landed may finish (at most one per worker beyond the 5).
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: dispatch did not stop, %d of %d jobs ran", workers, got, n)
		}
		cancel()
	}
}

func TestMapOrderedCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := mapOrdered(ctx, 10, workers, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d jobs ran under a pre-cancelled context", workers, got)
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
