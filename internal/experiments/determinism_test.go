package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with the golden file testdata/file, rewriting
// the file first when -update is set.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from committed golden (regenerate with -update if the model change is intentional):\n--- got ---\n%s--- want ---\n%s", file, got, want)
	}
}

// The determinism contract (DESIGN.md): a sweep is a pure function of
// (spec, options, seeds), no matter how many workers run it. The tests
// below lock that down three ways — sequential runs repeat exactly,
// parallel runs reproduce the sequential bytes, and both match a golden
// file committed under testdata/ so unintentional model drift shows up as
// a diff, not as silent reinterpretation. The golden sweeps run through
// the same declarative Spec engine as every figure, so the goldens also
// lock the engine's enumeration and reduction order.

// goldenOpts is a trimmed Fig. 7a protocol: two seeds, short windows, so
// the sweep stays fast enough to run three times per test (and under
// -race in CI).
func goldenOpts(parallel int) Options {
	return Options{
		Measure:  600 * units.Microsecond,
		Warmup:   200 * units.Microsecond,
		Seeds:    []uint64{1, 2},
		Parallel: parallel,
	}
}

// goldenDefinition is a fig7a-style converged-traffic sweep (LSG RTT and
// bulk goodput vs BSG count) expressed as a declarative Spec.
func goldenDefinition() Definition {
	return Definition{
		ID:      "fig7a-golden",
		Title:   "Determinism golden: LSG RTT and total goodput vs number of BSGs",
		Columns: []string{"num_bsgs", "p50_us", "p999_us", "total_gbps", "samples"},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecStar,
				Workload: Workload{
					{Kind: GroupBSG, Count: 3, Payload: 4096},
					{Kind: GroupLSG},
				},
			},
			Sweep:   []Axis{{Field: AxisBSGs, Counts: intRange(0, 3)}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps", "lsg_samples"},
		},
	}
}

// goldenSweep renders the sweep as a formatted table.
func goldenSweep(opts Options) (string, error) {
	tbl, err := RunSpec(goldenDefinition(), opts)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

// incastGoldenSweep renders the fat-tree incast sweep (three fabric sizes
// x three incast depths, see incast.go) — the multi-hop counterpart of the
// fig7a golden, locking the fabric generator's wiring, routing derivation
// and the runner's parallel determinism in one artifact.
func incastGoldenSweep(opts Options) (string, error) {
	tbl, err := RunID("incast", opts)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

func TestIncastDeterminismParallelMatchesSequential(t *testing.T) {
	seq, err := incastGoldenSweep(goldenOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := incastGoldenSweep(goldenOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if par != seq {
			t.Fatalf("%d-worker incast sweep diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", workers, seq, par)
		}
	}
}

func TestIncastDeterminismGoldenFile(t *testing.T) {
	got, err := incastGoldenSweep(goldenOpts(0)) // default pool: the path users run
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "incast_sweep.golden", got)
}

func TestDeterminismSequentialRepeats(t *testing.T) {
	first, err := goldenSweep(goldenOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := goldenSweep(goldenOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two sequential runs diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

func TestDeterminismParallelMatchesSequential(t *testing.T) {
	seq, err := goldenSweep(goldenOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := goldenSweep(goldenOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if par != seq {
			t.Fatalf("%d-worker run diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", workers, seq, par)
		}
	}
}

func TestDeterminismGoldenFile(t *testing.T) {
	got, err := goldenSweep(goldenOpts(0)) // default pool: the path users run
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7a_sweep.golden", got)
}
