GO ?= go

.PHONY: all vet build test race bench bench-queue test-alloc test-shard test-debugpackets test-faults test-serve test-workload test-perfbench fuzz-spec fuzz-checkpoint fuzz-wheel fuzz-engine golden parity smoke-examples smoke-specs smoke-serve ci

all: vet build test

# vet also fails on any file gofmt would change (gofmt -l lists them).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# test is the plain run of the whole suite, with per-package coverage.
test:
	$(GO) test -cover ./...

# race enforces the concurrency contract of the parallel scenario runner
# (internal/experiments/runner.go): scenario runs share no mutable state.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-queue compares the timing-wheel calendar against the 4-ary-heap
# baseline it replaced (see internal/sim/queue_bench_test.go), on uniform
# churn, the wake pattern and the delay spectrum the fig8 grid schedules.
# Beside them it runs the RNIC send-engine queues (BenchmarkEngineQueue,
# internal/rnic/queue_test.go), one push and one serve per op: the
# responder engine's heap at depths 1 to 2,048 against the slice scan it
# replaced, and a data engine's ring at depth 256.
bench-queue:
	$(GO) test -run XXX -bench 'BenchmarkQueue' -benchtime 2s ./internal/sim/
	$(GO) test -run XXX -bench 'BenchmarkEngineQueue' -benchtime 1s ./internal/rnic/

# test-alloc runs the allocation-regression tests: the steady-state hot
# path (forwarding, converged traffic, incast) must stay at 0 allocs/packet,
# and one 512-host fabric build within its bytes and allocations budget.
test-alloc:
	$(GO) test -run 'ZeroAlloc|BuildBudget' -v .

# test-shard runs the sharded-execution equivalence suite under -race: the
# conservative coordinator's epoch loop on the calling goroutine and on the
# shard workers (and the density gate between them), the cross-shard
# wire/credit path, the credit-conservation audit of every link at
# quiescence, and the byte-equality of shards=1 vs sharded runs at every
# layer (topology completion times, full experiment tables). -race matters
# here: the shard workers are the only concurrent code in the simulator
# core, and these tests drive them with real cross-shard traffic.
test-shard:
	$(GO) test -race -run 'Shard|CrossWire|CrossGate|FatTree3|RunBefore|CreditConservation' \
		./internal/sim/ ./internal/link/ ./internal/topology/ ./internal/experiments/

# test-debugpackets runs the whole suite with the packet-pool poison mode
# enabled, catching use-after-release and double-release of pooled packets.
test-debugpackets:
	$(GO) test -tags debugpackets ./...

# test-perfbench vets and tests the benchmark harness. perfbench is its own
# module that imports repro/internal/..., so the root `go build ./...` never
# compiles it; this is what catches an internal API change that breaks it.
test-perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# fuzz-spec fuzzes the spec parser beyond its seed corpus (the committed
# specs, the example specs and every registered definition, which plain
# `go test` already runs): any spec ParseSpec accepts must marshal to JSON
# that parses again and re-marshals byte-identically, so serve's memo key
# of a spec is stable.
fuzz-spec:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 20s ./internal/experiments

# fuzz-checkpoint fuzzes serve's checkpoint journal reader beyond its seed
# corpus (journals append wrote, torn tails, lines that decode but that
# append never writes): for any journal bytes, openCheckpoint refuses the
# journal or keeps a prefix of complete lines, each the marshalled record
# it restored, and reopening the kept journal changes nothing. Every input
# costs a file write and two opens, so minimizing one new-coverage input of
# a kilobyte-long journal would take the whole budget at the default
# minimization time (60 s); -fuzzminimizetime bounds it.
fuzz-checkpoint:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointReopen$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/serve

# fuzz-wheel fuzzes the timing-wheel calendar beyond its seed corpus: any
# sequence of At, Cancel, Reschedule, Step and RunUntil operations, with
# times at ties, in the tick being served, on every level's reach and
# bucket boundaries and past the wheel, must fire the same events in the
# same order as the 4-ary heap reference.
fuzz-wheel:
	$(GO) test -run '^$$' -fuzz '^FuzzWheelOps$$' -fuzztime 20s ./internal/sim

# fuzz-engine fuzzes the RNIC send-engine queues beyond their seed corpus:
# for any sequence of pushes (ready times drawn from a few values, so ties
# are common, at depths into the thousands) and serves, a data engine's
# ring and the responder engine's heap must each serve the packet the
# slice queue they replaced would serve. A deep input costs the reference
# scan tens of milliseconds, so -fuzzminimizetime keeps minimizing one
# from taking the whole budget.
fuzz-engine:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineQueue$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/rnic

# test-faults runs the fault-injection and transport-reliability suite:
# the fault goldens (TestFaultCountersGoldenFile pins rnr_total, retx_total
# and qp_errors), the shards 1/2/4 x barrier-mode byte-equivalence of
# fault schedules, the exactly-once delivery property under heavy random
# loss, TestFaultAckTimersFireOnlyToAct (internal/topology: every fired
# ack timer retransmits or errors its op out), TestRelDeferrals and
# TestRelDeferralsAtTies (internal/rnic: the RNR count derived from an op's
# deadline against an engine timer re-armed every period, and its tie
# rule on a NIC) — under -race (the retransmission timers run inside the
# sharded engines) and again with the packet-pool poison mode (dropped and
# duplicate packets must never be released twice).
test-faults:
	$(GO) test -race -run 'Fault|WheelAfterOverflow|RelDeferrals' \
		./internal/sim/ ./internal/experiments/ ./internal/topology/ ./internal/rnic/
	$(GO) test -tags debugpackets -run 'Fault|RelDeferrals' \
		./internal/experiments/ ./internal/topology/ ./internal/rnic/

# test-serve runs the experiment-service suite under -race — the HTTP
# surface (byte-equality with ibsim run, 429 shedding, per-job deadlines,
# retry/backoff, panic isolation, checkpoint resume, graceful drain) plus
# the cancellation and engine-interrupt layers it stands on.
test-serve:
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'Interrupt|Stream|RunCancelled|RunSpecUncancelled|SpecHash' \
		./internal/sim/ ./internal/experiments/

# test-workload runs the open-loop subsystem suite under -race: the sealed
# arrival-schedule purity properties, the backlog/sojourn accounting of the
# workload package, the loadlatency goldens (hockey-stick curves byte-stable
# across parallel modes) and the open-loop shard/parallel equivalence.
test-workload:
	$(GO) test -race ./internal/workload/
	$(GO) test -race -run 'LoadLatency|OpenLoop|AxisLoad' ./internal/experiments/

# smoke-serve boots the service end to end: start `ibsim serve`, POST a
# committed spec twice (cold run, then checkpoint-memo replay) and diff
# both streams against `ibsim run -format jsonl` of the same spec.
smoke-serve:
	@set -e; \
	bin=$$(mktemp); dir=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$bin" "$$dir"' EXIT; \
	$(GO) build -o "$$bin" ./cmd/ibsim; \
	"$$bin" serve -addr 127.0.0.1:18347 -checkpoint "$$dir/ckpt" 2>/dev/null & pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:18347/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	"$$bin" run -spec specs/slicemix.json -measure 3ms -warmup 1ms -seeds 1 -format jsonl -out "$$dir/cli.jsonl"; \
	curl -fsS -X POST --data-binary @specs/slicemix.json \
		'http://127.0.0.1:18347/run?measure=3ms&warmup=1ms&seeds=1' > "$$dir/cold.jsonl"; \
	diff "$$dir/cli.jsonl" "$$dir/cold.jsonl"; \
	curl -fsS -X POST --data-binary @specs/slicemix.json \
		'http://127.0.0.1:18347/run?measure=3ms&warmup=1ms&seeds=1' > "$$dir/memo.jsonl"; \
	diff "$$dir/cli.jsonl" "$$dir/memo.jsonl"; \
	echo "smoke-serve: cold and memo streams byte-identical to ibsim run"

# golden regenerates every golden file under internal/experiments/testdata
# (the fig7a, incast, bigfabric, slicing, fault and loadlatency sweeps,
# fault_counters.golden: the rnr_total, retx_total and qp_errors counters of
# the fault suites and of a three-tier fault point at 1 and 4 shards, and
# registry.golden: all registered tables over three seeds),
# internal/topology/testdata/construction.golden (switch names and ports,
# the link registry and RNG streams of nine fabrics) and routes.golden
# beside it (every switch's egress and failover ports for every
# destination of the same fabrics) after an intentional model change.
golden:
	$(GO) test ./internal/experiments/ -run 'GoldenFile' -update
	$(GO) test ./internal/topology/ -run 'ConstructionGolden|RoutesGolden' -update

# parity checks that the working tree's CLI output is byte-identical to
# BASE's (a git revision, default HEAD): BASE's ibsim is built from
# `git archive` under .bench_build/parity/, the working tree's beside it,
# and both render `list`, every listed id (300us measured after 100us of
# warmup, two seeds) and every committed spec at -parallel 1 and 2, and
# `export` of every id. Errors and exit codes are part of the output. A
# refactor that claims unchanged output runs `make parity BASE=<parent>`;
# it stays out of ci, whose checkouts have no parent commit.
BASE ?= HEAD
PARITY := .bench_build/parity
parity:
	@set -e; \
	rm -rf $(PARITY); mkdir -p $(PARITY)/src $(PARITY)/base $(PARITY)/work; \
	git archive $(BASE) | tar -x -C $(PARITY)/src; \
	(cd $(PARITY)/src && $(GO) build -o ../ibsim-base ./cmd/ibsim); \
	$(GO) build -o $(PARITY)/ibsim-work ./cmd/ibsim; \
	ids=$$($(PARITY)/ibsim-work list | sed -n -E 's/^[* ] ([a-z0-9][a-z0-9-]*) .*/\1/p'); \
	win='-format jsonl -measure 300us -warmup 100us -seeds 2'; \
	for side in base work; do \
		bin=$(PARITY)/ibsim-$$side; out=$(PARITY)/$$side; \
		echo "== $$side: $$(echo $$ids | wc -w) ids, specs, exports"; \
		"$$bin" list >$$out/list 2>&1 || echo "exit $$?" >>$$out/list; \
		for id in $$ids; do \
			"$$bin" export -id $$id >$$out/$$id.export 2>&1 || echo "exit $$?" >>$$out/$$id.export; \
			for p in 1 2; do \
				"$$bin" run -id $$id $$win -parallel $$p >$$out/$$id.p$$p 2>&1 || echo "exit $$?" >>$$out/$$id.p$$p; \
			done; \
		done; \
		for f in specs/*.json examples/*/spec.json; do \
			for p in 1 2; do \
				o=$$out/$$(echo $$f | tr / _).p$$p; \
				"$$bin" run -spec $$f $$win -parallel $$p >$$o 2>&1 || echo "exit $$?" >>$$o; \
			done; \
		done; \
	done; \
	diff -r $(PARITY)/base $(PARITY)/work; \
	echo "parity: $$(ls $(PARITY)/work | wc -l) outputs byte-identical to $(BASE)"

# smoke-examples runs every example binary end to end so the walkthroughs
# cannot silently rot as the API evolves, then validates the committed
# declarative specs (smoke-specs).
smoke-examples: smoke-specs
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# smoke-specs exercises the declarative experiment surface: the registry
# listing, a parse + Quick()-scale run of every committed .json spec
# (specs/ and the example specs), so a spec that drifts from the schema
# fails CI instead of rotting, and the built binary's flag wiring for
# several registered ids and for the playground.
smoke-specs:
	@set -e; \
	bin=$$(mktemp); trap 'rm -f "$$bin"' EXIT; \
	$(GO) build -o "$$bin" ./cmd/ibsim; \
	echo "== ibsim list"; \
	"$$bin" list >/dev/null; \
	for f in specs/*.json examples/*/spec.json; do \
		[ -e "$$f" ] || continue; \
		echo "== ibsim run -spec $$f"; \
		"$$bin" run -spec "$$f" -measure 3ms -warmup 1ms -seeds 1 >/dev/null; \
	done; \
	echo "== ibsim run -id fig7a,fig12"; \
	"$$bin" run -id fig7a,fig12 -measure 300us -warmup 100us -seeds 1 -format jsonl >/dev/null; \
	echo "== ibsim -qos -pretend"; \
	"$$bin" -qos -pretend -measure 300us -warmup 100us -seeds 1 >/dev/null

# ci runs each test once per mode: plain, -race, debugpackets. The focused
# -race targets above (test-shard, test-faults, test-serve, test-workload)
# are subsets of race and stay out of ci; they are local shortcuts.
ci: vet build test race test-alloc test-debugpackets test-perfbench fuzz-spec fuzz-checkpoint fuzz-wheel fuzz-engine smoke-examples smoke-serve
