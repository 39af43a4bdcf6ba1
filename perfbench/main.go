// Command perfbench is the repository's benchmark. It runs one workload
// through the entry points users call (experiments.RunSpec, as `ibsim run`
// does, or an in-process serve.Server over loopback HTTP), checks every
// output, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced pass and a layer-by-layer probe (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3151, "failed": 0, "metrics": {...}}
//
// Run it from the checkout root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload paper-star --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/units"
)

// outDir holds what a run leaves behind (checkpoints while it runs, the
// span file after a traced run), relative to the checkout root.
const outDir = ".bench_build/perfbench"

const (
	// setupSlice is how long each round repeats set-up passes (at least
	// one): a paper-star set-up pass takes about 10 ms, too short to time
	// alone.
	setupSlice = 500 * time.Millisecond
	// memoChunk is how many memo replays each round times; a run has
	// several rounds, so its p99 has at least ten samples beyond it.
	memoChunk = 1000
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench is one benchmark run.
type bench struct {
	w       *workloadSpec
	seed    uint64
	seconds time.Duration
	workers int
	ctx     context.Context
	dir     string // this run's own directory under outDir (checkpoints)
	t       tally
}

// paperOptions are the paper's windows (3 ms warmup, 12 ms measured) over
// three seeds starting at the benchmark seed, on the pinned worker count.
func (b *bench) paperOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Seeds = []uint64{b.seed, b.seed + 1, b.seed + 2}
	o.Parallel = b.workers
	o.Ctx = b.ctx
	return o
}

// minOptions is the smallest window both entry points accept: 1 ns
// measured, no warmup. A pass then costs only resolve, build, start,
// collect, reduce and stream.
func (b *bench) minOptions() experiments.Options {
	o := b.paperOptions()
	o.Measure, o.Warmup = units.Nanosecond, 0
	return o
}

// environment is recorded beside every run so box drift stays visible.
type environment struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seeds      []uint64 `json:"seeds"` // the seeds the runs use
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	CalibMs    float64  `json:"calib_ms"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Go         string   `json:"go"`
	FreshBuild bool     `json:"fresh_build"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; runs use seeds seed, seed+1, seed+2")
	seconds := fs.Int("seconds", 25, "how long the timed passes measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	freshBuild := fs.Bool("fresh-build", false, "this run compiled the benchmark from an empty build cache")
	update := fs.Bool("update", false, "rewrite the workload's committed expectation (seed 1 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := loadWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU(), ctx: ctx}
	if w.seedFixed {
		b.seed = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.dir, err = os.MkdirTemp(outDir, w.name+"-"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	env := environment{
		Workload: w.name, Seed: *seed, Seeds: b.paperOptions().Seeds, Seconds: *seconds, Trace: *trace,
		CalibMs: calibrate(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: b.workers, Go: runtime.Version(), FreshBuild: *freshBuild,
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	metrics := map[string]float64{}
	m := b.measure(*trace == 0)
	if len(m.passes) > 0 {
		b.t.record(b.checkExpectation(m.passes[0], *update))
		var walls, firsts, allocs []float64
		for _, p := range m.passes {
			walls = append(walls, p.wall.Seconds())
			firsts = append(firsts, p.firstRow.Seconds())
			allocs = append(allocs, float64(p.alloc)/1e6)
		}
		metrics["wall_s"] = median(walls)
		metrics["first_row_s"] = median(firsts)
		metrics["alloc_mb"] = median(allocs)
		fmt.Fprintf(stdout, "timed passes wall_s %.4f\n", walls)
		sum := sha256.Sum256(bytes.Join(m.passes[0].out, nil))
		fmt.Fprintf(stdout, "output %s sha256 %x\n", w.name, sum)
	}
	if *trace == 0 {
		metrics["setup_s"] = median(m.setup)
		fmt.Fprintf(stdout, "setup passes %d\n", len(m.setup))
		// Memo replay latency moves by up to 2x between runs on a shared
		// two-CPU box, so it is printed, not reported as a metric.
		p50, err := percentile(m.memo, 50)
		b.t.record(err)
		p99, err := percentile(m.memo, 99)
		b.t.record(err)
		fmt.Fprintf(stdout, "memo replays %d: p50 %.4f ms, p99 %.4f ms\n", len(m.memo), p50, p99)
	} else if len(m.passes) > 0 {
		if err := b.tracedRun(metrics, m.passes, env); err != nil {
			fmt.Fprintln(stderr, "perfbench: traced run:", err)
		}
	}
	return b.report(stdout, stderr, metrics, *trace)
}

// sameOutput checks a pass against the reference output.
func sameOutput(p, ref pass) error {
	if p.out == nil {
		return nil // the pass failed; its error is counted already
	}
	if len(p.out) != len(ref.out) {
		return fmt.Errorf("pass produced %d tables, reference %d", len(p.out), len(ref.out))
	}
	for i := range p.out {
		if !bytes.Equal(p.out[i], ref.out[i]) {
			return fmt.Errorf("table %d differs from the reference output:\n%s\nwant:\n%s", i, p.out[i], ref.out[i])
		}
	}
	return nil
}

// expectationPath is the committed output of the workload at seed 1.
func (b *bench) expectationPath() string {
	return filepath.Join("perfbench", "testdata", b.w.name+".jsonl")
}

// checkExpectation compares a seed-1 pass with the committed expectation
// (or rewrites it with update). Other seeds have none.
func (b *bench) checkExpectation(p pass, update bool) error {
	if b.seed != 1 {
		return nil
	}
	got := bytes.Join(p.out, nil)
	if update {
		return os.WriteFile(b.expectationPath(), got, 0o644)
	}
	want, err := os.ReadFile(b.expectationPath())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from %s:\n%s", b.expectationPath(), got)
	}
	return nil
}

// report prints the metrics (a per-layer one with the end-to-end metric
// it should move), the operation tally and the result line.
func (b *bench) report(stdout, stderr io.Writer, metrics map[string]float64, trace int) int {
	list := endToEnd
	if trace == 1 {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range list {
		v := metrics[m.name]
		out[m.name] = value{v, m.unit}
		moves := ""
		if m.moves != "" {
			moves = "  -> " + m.moves
		}
		fmt.Fprintf(stdout, "metric %-24s %14.6g %-5s%s\n", m.name, v, m.unit, moves)
	}
	for _, err := range b.t.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", err)
	}
	fmt.Fprintf(stdout, "fail_rate %g (%d of %d operations failed)\n", b.t.failRate(), b.t.failed, b.t.attempted)
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.t.failed == 0, b.t.attempted, b.t.failed, out})
	fmt.Fprintf(stdout, "%s\n", line)
	if b.t.failed > 0 {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibrate times a fixed loop that calls no repository code (median of
// three), so a slower box shows up beside every number.
func calibrate() float64 {
	var runs []float64
	for range 3 {
		start := time.Now()
		x := uint64(88172645463325252)
		for range 20_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		runs = append(runs, ms(time.Since(start)))
	}
	return median(runs)
}

var calibSink uint64
