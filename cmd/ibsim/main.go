// Command ibsim runs simulated InfiniBand scenarios: the built-in
// experiment registry, user-authored JSON specs, and a free-form
// playground.
//
// Usage:
//
//	ibsim list
//	    List every registered experiment (the paper's figures, the
//	    extension experiments and the fat-tree suite).
//
//	ibsim run (-spec file.json | -id a,b,...|all) [-shards 0] [-generic]
//	          [execution flags]
//	    Execute a declarative experiment spec, or registered experiments
//	    by id, through the generic sweep engine — arbitrary novel
//	    scenarios without recompiling. -id takes a comma list, or all for
//	    the paper's figures in paper order. If the spec's id matches a
//	    registered experiment, the registry's table layout is applied (so
//	    an exported figure spec reproduces the figure byte for byte);
//	    -generic forces the one-row-per-point layout regardless. -shards
//	    overrides the spec's shard count and takes one table only.
//
//	ibsim export -id fig7a [-out path]
//	    Write a registered experiment's spec as JSON: the starting point
//	    for authoring variations.
//
//	ibsim serve -addr 127.0.0.1:8080 [-checkpoint dir] [-max-running 2]
//	            [-max-queued 8] [-job-deadline 0] [-retries 2]
//	            [-retry-base 100ms] [-drain 10s] [-workers 0]
//	    Run the experiment service: POST a spec JSON to
//	    /run[?measure=12ms&warmup=3ms&seeds=3] (the run defaults) and the
//	    reduced table streams back as JSON lines, row by row as points
//	    complete, byte-identical to `ibsim run -format jsonl`: both run
//	    sweeps through one executor. Per-job panic isolation, deadlines,
//	    retry/backoff, 429 load shedding, sweep checkpointing with
//	    crash-safe resume, and graceful drain on SIGTERM. /healthz and
//	    /stats expose liveness and counters.
//
//	ibsim [-profile hw|sim] [-topo backtoback|star|twotier|fattree]
//	      [-leaves 3 -hosts 4 -spines 2 -trunks 1]
//	      [-policy fcfs|rr|vlarb|spf] [-qos] [-bsgs 5] [-bsg-payload 4096]
//	      [-pretend] [execution flags]
//	    Playground: one converged scenario built from flags, printed as a
//	    one-row table — LSG RTT median, p99.9 and sample count, bulk
//	    goodput min/max/total, and with -pretend the pretend LSG's goodput.
//
// Execution flags, shared by run and the playground:
//
//	-measure 12ms -warmup 3ms   simulated windows
//	-seeds 3                    seeds 1..N, averaged (the paper's three runs)
//	-parallel 0                 worker pool (0 = one per CPU, 1 = sequential)
//	-format text|csv|jsonl      table sink
//	-out path                   output file for one table; for several, a
//	                            directory of <id>.<format> files (default
//	                            stdout, text tables separated by a blank line)
//	-cpuprofile f -memprofile f pprof profiles of the run
//
// Tables are byte-identical at any -parallel: every run owns an independent
// engine and RNG stream, and results are reduced in job order. A bad
// -format, -out or profile path fails before anything runs. Each table is
// written as soon as it finishes; ^C or SIGTERM stops the sweep and exits
// nonzero, keeping the tables already written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/ibswitch"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "list":
			cmdList(os.Args[2:])
		case "run":
			must(interruptible(cmdRun, os.Args[2:]))
		case "export":
			cmdExport(os.Args[2:])
		case "serve":
			cmdServe(os.Args[2:])
		case "help": // -h/--help start with '-' and are handled by the flag package
			fs, _, _ := playgroundFlags()
			fs.Usage()
		default:
			fatal(fmt.Errorf("unknown command %q (valid: list, run, export, serve, or flags for the playground)", os.Args[1]))
		}
		return
	}
	must(interruptible(playground, os.Args[1:]))
}

// interruptible runs a table-printing command to stdout under a context
// that ^C and SIGTERM cancel: dispatch stops, the running simulations
// abort at their next interrupt poll, and the command exits nonzero
// instead of dying mid-write.
func interruptible(cmd func(context.Context, []string, io.Writer) error, args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return cmd(ctx, args, os.Stdout)
}

// --- ibsim list -------------------------------------------------------------

func cmdList(args []string) {
	fs := flag.NewFlagSet("ibsim list", flag.ExitOnError)
	must(fs.Parse(args))
	defs := experiments.Definitions()
	wid := 0
	for _, d := range defs {
		if len(d.ID) > wid {
			wid = len(d.ID)
		}
	}
	for _, d := range defs {
		tag := " "
		if d.Paper {
			tag = "*"
		}
		fmt.Printf("%s %-*s  %s\n", tag, wid, d.ID, d.Title)
	}
	fmt.Println("\n* = regenerates a figure/table of the paper; run with `ibsim run -id <id>` (all of them: `-id all`)")
	fmt.Println("export any entry as a JSON starting point: `ibsim export -id <id>`")
}

// --- execution: the one path from definitions to tables ---------------------

// execFlags are the execution flags run and the playground share.
type execFlags struct {
	measure, warmup        time.Duration
	seeds, parallel        int
	format, out            string
	cpuprofile, memprofile string
}

func addExecFlags(fs *flag.FlagSet) *execFlags {
	e := &execFlags{}
	fs.DurationVar(&e.measure, "measure", 12*time.Millisecond, "simulated measurement window")
	fs.DurationVar(&e.warmup, "warmup", 3*time.Millisecond, "simulated warmup before measuring")
	fs.IntVar(&e.seeds, "seeds", 3, "number of seeds to average, 1..N (paper: 3 runs)")
	fs.IntVar(&e.parallel, "parallel", 0, "scenario worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&e.format, "format", "text", "output format: text, csv or jsonl")
	fs.StringVar(&e.out, "out", "", "output file; with several tables, a directory of <id>.<format> files (default stdout)")
	fs.StringVar(&e.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&e.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	return e
}

// sinks maps each -format to its sink; the name is also the file extension
// in an -out directory.
var sinks = map[string]func(io.Writer) experiments.Sink{
	"text":  experiments.NewTextSink,
	"csv":   experiments.NewCSVSink,
	"jsonl": experiments.NewJSONLSink,
}

// execute runs each definition through experiments.RunSpec and writes its
// table through the -format sink as soon as it finishes. The sink, the
// -out file or directory and the profile files are all resolved before
// the first job is dispatched, so a bad flag fails at once rather than
// after the sweep.
func execute(ctx context.Context, defs []experiments.Definition, e *execFlags, stdout io.Writer) (err error) {
	newSink, ok := sinks[e.format]
	if !ok {
		return fmt.Errorf("format %q unknown (valid: text, csv, jsonl)", e.format)
	}
	w, dir := stdout, ""
	switch {
	case e.out == "":
	case len(defs) > 1:
		if err := os.MkdirAll(e.out, 0o755); err != nil {
			return err
		}
		dir = e.out
	default:
		var f *os.File
		if f, err = os.Create(e.out); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = f
	}
	stopProfiles, err := startProfiles(e.cpuprofile, e.memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	opts := experiments.Options{
		Measure:  units.Duration(e.measure.Nanoseconds()) * units.Nanosecond,
		Warmup:   units.Duration(e.warmup.Nanoseconds()) * units.Nanosecond,
		Parallel: e.parallel,
		Ctx:      ctx,
	}
	for s := 1; s <= e.seeds; s++ {
		opts.Seeds = append(opts.Seeds, uint64(s))
	}
	for i, d := range defs {
		tbl, err := experiments.RunSpec(d, opts)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted, %d of %d tables written (%w)", i, len(defs), err)
			}
			return err
		}
		if dir != "" {
			err = writeTable(filepath.Join(dir, tbl.ID+"."+e.format), tbl, newSink)
		} else if err = tbl.Emit(newSink(w)); err == nil && len(defs) > 1 && e.format == "text" {
			_, err = fmt.Fprintln(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeTable writes one table to its own file.
func writeTable(path string, t *experiments.Table, newSink func(io.Writer) experiments.Sink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(t.Emit(newSink(f)), f.Close())
}

// startProfiles creates the profile files and starts the CPU profile. The
// returned stop ends the CPU profile and writes the heap profile; execute
// defers it, so a failing run's profiles still land.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	stop = func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // flush dead setup objects so live retention reads true
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			return nil, errors.Join(err, stop())
		}
	}
	return stop, nil
}

// --- ibsim run --------------------------------------------------------------

func cmdRun(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ibsim run", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to a JSON experiment spec (this or -id is required)")
	ids := fs.String("id", "", "registered experiment ids, comma-separated, or all for the paper's figures (see `ibsim list`)")
	shards := fs.Int("shards", 0, "override the spec's shard count, one table only (0 = use the spec; three-tier fat-trees admit up to one shard per pod)")
	generic := fs.Bool("generic", false, "force the generic one-row-per-point layout even for registered ids")
	e := addExecFlags(fs)
	must(fs.Parse(args))
	if (*specPath == "") == (*ids == "") {
		return errors.New("run: exactly one of -spec or -id is required")
	}
	defs, err := definitions(*specPath, *ids)
	if err != nil {
		return err
	}
	if *shards != 0 {
		if len(defs) > 1 {
			return errors.New("run: -shards takes one table; run the ids one at a time")
		}
		spec := &defs[0].Spec
		if spec.Base == nil {
			return fmt.Errorf("run: -shards needs a spec with a base point; %q carries its shard counts in its variants", spec.ID)
		}
		// Copy the base: a registered definition shares it with the
		// registry. RunSpec re-validates, so an out-of-range count fails
		// with the validator's error, which quotes the valid range derived
		// from the topology (1..Pods for three-tier fat-trees, else 1).
		base := *spec.Base
		base.Shards = *shards
		spec.Base = &base
	}
	if *generic {
		// Bypass the registry's layout but keep the spec's identity, so
		// downstream tooling keying on the id still sees it.
		for i, d := range defs {
			defs[i] = experiments.Definition{ID: d.ID, Title: d.Spec.Title, Spec: d.Spec}
		}
	}
	return execute(ctx, defs, e, stdout)
}

// definitions resolves -spec, or -id: a comma list of registered ids, or
// all for the paper's figures in paper order. A registered id runs its
// definition directly, so a custom layout (columns + reduce) renders
// exactly as in the committed goldens.
func definitions(specPath, ids string) ([]experiments.Definition, error) {
	var defs []experiments.Definition
	switch {
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := experiments.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return []experiments.Definition{experiments.DefinitionFor(spec)}, nil
	case ids == "all":
		for _, d := range experiments.Definitions() {
			if d.Paper {
				defs = append(defs, d)
			}
		}
		return defs, nil
	}
	for _, id := range strings.Split(ids, ",") {
		d, ok := experiments.Lookup(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("run: unknown experiment %q (valid: all, %s)", id, strings.Join(experiments.IDs(), ", "))
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// --- ibsim export -----------------------------------------------------------

func cmdExport(args []string) {
	fs := flag.NewFlagSet("ibsim export", flag.ExitOnError)
	id := fs.String("id", "", "registered experiment id (see `ibsim list`)")
	out := fs.String("out", "", "output file (default stdout)")
	must(fs.Parse(args))
	d, ok := experiments.Lookup(*id)
	if !ok {
		fatal(fmt.Errorf("export: unknown experiment %q (valid: %s)", *id, strings.Join(experiments.IDs(), ", ")))
	}
	data, err := d.Spec.MarshalIndent()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// --- ibsim serve ------------------------------------------------------------

func cmdServe(args []string) {
	fs := flag.NewFlagSet("ibsim serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory for sweep resume/memo (empty = recompute every sweep)")
	maxRunning := fs.Int("max-running", 2, "concurrently executing sweeps")
	maxQueued := fs.Int("max-queued", 8, "sweeps allowed to wait for a run slot; beyond it POSTs are shed with 429")
	jobDeadline := fs.Duration("job-deadline", 0, "wall-clock cap per (point, seed) job attempt (0 = none)")
	retries := fs.Int("retries", 2, "retries per job after a transient failure")
	retryBase := fs.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per retry)")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight jobs on shutdown before hard cancel")
	workers := fs.Int("workers", 0, "job worker pool per sweep (0 = GOMAXPROCS)")
	must(fs.Parse(args))

	srv, err := serve.New(serve.Config{
		CheckpointDir: *checkpoint,
		MaxRunning:    *maxRunning,
		MaxQueued:     *maxQueued,
		JobDeadline:   *jobDeadline,
		Retry:         serve.RetryPolicy{MaxRetries: *retries, BaseDelay: *retryBase, MaxDelay: 5 * time.Second},
		Workers:       *workers,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ibsim serve: listening on http://%s (POST specs to /run)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining
	fmt.Fprintf(os.Stderr, "ibsim serve: draining (in-flight jobs get up to %v)\n", *drain)
	srv.Shutdown(*drain)
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(closeCtx)
	fmt.Fprintln(os.Stderr, "ibsim serve: drained, bye")
}

// --- playground -------------------------------------------------------------

// playgroundConfig holds the playground's scenario flags.
type playgroundConfig struct {
	profile, topo, policy         string
	leaves, hosts, spines, trunks int
	qos, pretend                  bool
	bsgs                          int
	bsgPayload                    int64
}

func playgroundFlags() (*flag.FlagSet, *playgroundConfig, *execFlags) {
	fs := flag.NewFlagSet("ibsim", flag.ExitOnError)
	cfg := &playgroundConfig{}
	fs.StringVar(&cfg.profile, "profile", "hw", "parameter profile: hw (SX6012) or sim (OMNeT-like)")
	fs.StringVar(&cfg.topo, "topo", "star", "fabric shape: "+strings.Join(topology.Kinds(), ", "))
	fs.IntVar(&cfg.leaves, "leaves", 3, "fattree: number of leaf switches")
	fs.IntVar(&cfg.hosts, "hosts", 4, "fattree: hosts per leaf")
	fs.IntVar(&cfg.spines, "spines", 2, "fattree: number of spine switches")
	fs.IntVar(&cfg.trunks, "trunks", 1, "fattree: parallel cables per leaf-spine pair")
	fs.StringVar(&cfg.policy, "policy", "fcfs", "scheduling policy: "+strings.Join(ibswitch.PolicyNames(), ", "))
	fs.BoolVar(&cfg.qos, "qos", false, "dedicated SL/VL QoS (maps SL1 to high-priority VL1)")
	fs.IntVar(&cfg.bsgs, "bsgs", 5, "bulk generators")
	fs.Int64Var(&cfg.bsgPayload, "bsg-payload", 4096, "bulk message size")
	fs.BoolVar(&cfg.pretend, "pretend", false, "replace one BSG with a pretend-LSG (requires -qos)")
	e := addExecFlags(fs)
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "Usage:")
		fmt.Fprintln(w, "  ibsim list                      list registered experiments")
		fmt.Fprintln(w, "  ibsim run -spec file.json ...   run a declarative JSON experiment spec")
		fmt.Fprintln(w, "  ibsim run -id fig7a,fig9|all    run registered experiments")
		fmt.Fprintln(w, "  ibsim export -id fig7a ...      write a registered spec as JSON")
		fmt.Fprintln(w, "  ibsim serve -addr host:port ... serve specs over HTTP (crash-safe, resumable)")
		fmt.Fprintln(w, "  ibsim [flags]                   playground: one converged scenario")
		fmt.Fprintln(w, "\nPlayground flags:")
		fs.PrintDefaults()
	}
	return fs, cfg, e
}

// playground runs the flags' scenario as a one-row generic table.
func playground(ctx context.Context, args []string, stdout io.Writer) error {
	fs, cfg, e := playgroundFlags()
	must(fs.Parse(args))
	p, err := cfg.point()
	if err != nil {
		return err
	}
	collect := []string{"lsg_p50_us", "lsg_p999_us", "lsg_samples", "bulk_min_gbps", "bulk_max_gbps", "bulk_total_gbps"}
	if cfg.pretend {
		// Printed even at zero goodput: a starved gamer is exactly what
		// the pretend experiment exists to expose.
		collect = append(collect, "pretend_gbps")
	}
	spec := experiments.Spec{
		ID:      "playground",
		Title:   fmt.Sprintf("profile=%s topology=%s policy=%s qos=%v", cfg.profile, cfg.topo, p.Policy, cfg.qos),
		Base:    &p,
		Collect: collect,
	}
	return execute(ctx, []experiments.Definition{{Spec: spec}}, e, stdout)
}

// point translates the scenario flags into one sweep point.
func (cfg *playgroundConfig) point() (experiments.Point, error) {
	kind, err := topology.ParseKind(cfg.topo)
	if err != nil {
		return experiments.Point{}, err
	}
	tspec := topology.Spec{Kind: kind}
	maxBSGs := 5 // the legacy topologies expose five bulk-source slots
	if kind == topology.KindFatTree {
		ft := topology.FatTreeSpec{
			Leaves:       cfg.leaves,
			HostsPerLeaf: cfg.hosts,
			Spines:       cfg.spines,
			Trunks:       cfg.trunks,
		}
		if err := ft.Validate(); err != nil {
			return experiments.Point{}, err
		}
		tspec = topology.SpecFatTree(ft)
		maxBSGs = ft.NumHosts() - 2 // minus the probe and the drain host
	}
	if kind == topology.KindBackToBack {
		maxBSGs = 1
	}

	p := experiments.Point{
		Profile:  cfg.profile,
		Topology: tspec,
		Policy:   cfg.policy,
	}
	var bsgSL, lsgSL uint8
	if cfg.qos {
		p.QoS = experiments.QoSDedicated
		p.Policy = "vlarb"
		bsgSL, lsgSL = 0, 1
	}
	bsgs := cfg.bsgs
	if bsgs > maxBSGs {
		bsgs = maxBSGs
	}
	if cfg.pretend && bsgs > 0 {
		bsgs-- // the pretend LSG takes the last bulk-source slot
	}
	p.Workload = experiments.Workload{
		{Kind: experiments.GroupBSG, Count: bsgs, Payload: cfg.bsgPayload, SL: bsgSL},
	}
	if cfg.pretend {
		p.Workload = append(p.Workload, experiments.Group{Kind: experiments.GroupPretend, SL: lsgSL})
	}
	p.Workload = append(p.Workload, experiments.Group{Kind: experiments.GroupLSG, SL: lsgSL})
	return p, nil
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibsim:", err)
	os.Exit(1)
}
