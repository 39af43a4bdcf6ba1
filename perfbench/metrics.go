package main

// metric is one reported figure. moves names the end-to-end metric and
// workload a change in this per-layer metric should show up in, printed
// beside it; BENCHMARK.json carries only name, unit and better, so the
// mapping is kept here (metrics_test.go holds the two lists in step).
type metric struct {
	name, unit, better, moves string
}

// endToEnd are measured with tracing off (--trace 0).
var endToEnd = []metric{
	{"wall_s", "s", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"alloc_mb", "MB", "lower", ""},
	{"first_row_s", "s", "lower", ""},
}

// perLayer are measured by the traced pass and the probe (--trace 1).
var perLayer = []metric{
	{"experiments.resolve_ms", "ms", "lower", "setup_s on all workloads"},
	{"experiments.run_s", "s", "lower", "wall_s on paper-star and fattree512-open"},
	{"experiments.reduce_ms", "ms", "lower", "wall_s on all workloads; the memo replay p50 on served-faults"},
	{"experiments.jobs", "count", "lower", "wall_s on all workloads (grid size)"},

	{"topology.build_ms", "ms", "lower", "setup_s and alloc_mb on fattree512-open"},
	{"topology.build_allocs", "count", "lower", "setup_s and alloc_mb on fattree512-open"},
	{"traffic.build_ms", "ms", "lower", "setup_s on paper-star"},
	{"workload.build_ms", "ms", "lower", "setup_s and alloc_mb on fattree512-open"},
	{"workload.build_allocs", "count", "lower", "setup_s and alloc_mb on fattree512-open"},
	{"workload.arrivals", "count", "lower", "wall_s on fattree512-open"},
	{"workload.backlog_max", "count", "lower", "wall_s on fattree512-open"},

	{"sim.run_s", "s", "lower", "wall_s on paper-star"},
	{"sim.events", "count", "lower", "wall_s on paper-star"},
	{"sim.ns_per_event", "ns", "lower", "wall_s on paper-star"},
	{"sim.events_per_packet", "ratio", "lower", "wall_s on paper-star"},
	{"sim.run_allocs", "count", "lower", "alloc_mb on paper-star and fattree512-open"},
	{"sim.barrier_ratio", "ratio", "lower", "wall_s on fattree512-open"},
	{"ibswitch.forwarded", "count", "lower", "wall_s on paper-star"},

	{"events.link", "count", "lower", "wall_s on paper-star"},
	{"events.switch", "count", "lower", "wall_s on paper-star"},
	{"events.rnic", "count", "lower", "wall_s on paper-star"},
	{"events.rperf", "count", "lower", "wall_s on paper-star"},
	{"events.xwire", "count", "lower", "wall_s on fattree512-open"},
	{"events.open", "count", "lower", "wall_s on fattree512-open"},
	{"events.fault", "count", "lower", "wall_s on served-faults"},
	{"events.other", "count", "lower", "wall_s on paper-star and fattree512-open"},

	{"link.fault_drops", "count", "lower", "wall_s on served-faults"},
	{"rnic.retx", "count", "lower", "wall_s on served-faults"},
	{"rnic.retx_per_drop", "ratio", "lower", "wall_s on served-faults"},
	{"ibswitch.failover", "count", "lower", "wall_s on served-faults"},
	{"rnic.qp_errors", "count", "lower", "wall_s on served-faults"},

	{"serve.runner_s", "s", "lower", "wall_s and first_row_s on served-faults"},
	{"serve.self_ms", "ms", "lower", "wall_s and first_row_s on served-faults"},
	{"serve.journal_kb", "KB", "lower", "the memo replay p50 on served-faults"},
	{"serve.jobs_run", "count", "lower", "wall_s on served-faults"},
	{"serve.jobs_resumed", "count", "higher", "the memo replay p50 on served-faults"},
	{"serve.retries", "count", "lower", "fail_rate on served-faults"},
	{"serve.panics", "count", "lower", "fail_rate on served-faults"},
	{"serve.shed", "count", "lower", "fail_rate on served-faults"},

	{"cpu.sim", "%", "lower", "wall_s on paper-star"},
	{"cpu.link", "%", "lower", "wall_s on paper-star"},
	{"cpu.ibswitch", "%", "lower", "wall_s on paper-star"},
	{"cpu.rnic", "%", "lower", "wall_s on paper-star"},
	{"cpu.traffic", "%", "lower", "wall_s on paper-star"},
	{"cpu.core", "%", "lower", "wall_s on paper-star"},
	{"cpu.ib", "%", "lower", "wall_s on paper-star"},
	{"cpu.workload", "%", "lower", "wall_s on fattree512-open"},
	{"cpu.topology", "%", "lower", "setup_s and wall_s on fattree512-open"},
	{"cpu.stats", "%", "lower", "wall_s on fattree512-open"},
	{"cpu.rng", "%", "lower", "wall_s on fattree512-open"},
	{"cpu.experiments", "%", "lower", "wall_s on served-faults"},
	{"cpu.serve", "%", "lower", "wall_s and the memo replay p50 on served-faults"},
	{"cpu.runtime", "%", "lower", "wall_s and alloc_mb on all workloads"},
	{"cpu.other", "%", "lower", "wall_s on served-faults"},

	{"trace_overhead_pct", "%", "lower", "none: traced wall_s against timed wall_s"},
}
