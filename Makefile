# Developer entry points. `make check` is the gate every change must
# pass: vet, full build, full test suite, and the race detector over the
# packages with concurrency (the binding engine's worker pool and cache,
# the scheduler it fans out over, and the explorer, whose design points
# run on that pool).

GO ?= go
FUZZTIME ?= 30s

.PHONY: check vet build test race fuzz-smoke chaos-smoke obs-smoke store-smoke serve-smoke explore-smoke bench bench-json-pr7 bench-json-pr8 bench-json-pr9 bench-json-pr10 bench-parallel bench-smoke bench-alloc benchstat golden

check: vet build test race

# vet also fails on any Go file gofmt would rewrite (the benchmark's
# build directory excepted).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/bind/... ./internal/sched/... ./internal/store/... ./internal/server/... ./internal/sigctx/... ./internal/explore/...

# Short fuzzing pass over every native harness (the checked-in corpora
# under testdata/fuzz run on every plain `go test` already; this spends
# FUZZTIME per harness searching for new inputs). The Go fuzz engine
# accepts one -fuzz target per invocation, hence one line each. The
# bind/audit harness datapath tables include ring and point-to-point
# machines (one with multi-hop routes), so every pass here fuzzes the
# routed-interconnect paths alongside the shared bus. FuzzServeRequest
# re-audits every 200 the daemon serves out of band.
fuzz-smoke:
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzBindRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bind -run '^$$' -fuzz '^FuzzEvaluatorDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codegen -run '^$$' -fuzz '^FuzzSpillRebind$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/textio -run '^$$' -fuzz '^FuzzTextioRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/textio -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME)

# Fault-injection sweep for the anytime contract: the seeded chaos
# schedules (which sweep a ring machine alongside the shared-bus ones)
# and every cancellation/panic-isolation test run under the race
# detector — the engine's and the daemon's, whose panics the engine
# alone retries — then the cancellation fuzzer spends FUZZTIME
# searching for a cut point that breaks the degradation guarantees.
chaos-smoke:
	$(GO) test -race ./internal/bind -run 'Cancel|Degrade|Panic|Retr|Stats' -count 1
	$(GO) test -race ./internal/server -run 'Panic|Chaos' -count 1
	$(GO) test -race ./internal/audit -run '^TestChaosSweep$$' -count 1
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzCancelAnytime$$' -fuzztime $(FUZZTIME)

# Observability smoke: one traced, metered, explained EWF binding via
# the real CLI (the journal must come back non-empty), then the vbind
# test that decodes every JSONL line and reconciles the journal's cache
# verdicts against the CacheStats counters the run reports.
obs-smoke:
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -trace /tmp/vliwbind-obs.jsonl -metrics -explain
	@test -s /tmp/vliwbind-obs.jsonl || { echo "obs-smoke: trace journal is empty"; exit 1; }
	$(GO) run ./cmd/vbind -kernel EWF -dp '[1,1|1,1|1,1]' -topology ring -algo iter -trace /tmp/vliwbind-obs-ring.jsonl -metrics
	@test -s /tmp/vliwbind-obs-ring.jsonl || { echo "obs-smoke: ring trace journal is empty"; exit 1; }
	$(GO) test ./cmd/vbind -run '^TestObsSmoke$$' -count 1

# Result-store smoke: the store unit suite (journal round-trip,
# crash-safety replay, the isomorphic-collision property) and the facade
# tests that pin audit-on-read, then the CLI acceptance pair — two vbind
# runs sharing a -store-dir, where the first must miss and the second
# must be served from an audited hit — and finally the vbind test that
# reconciles store.* journal events against the reported counters.
store-smoke:
	$(GO) test ./internal/store -count 1
	$(GO) test . -run 'TestStore|TestModuloPipelineStored' -count 1
	@rm -rf /tmp/vliwbind-store-smoke
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 0 hit(s), 1 miss(es)'
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 1 hit(s), 0 miss(es)'
	@test -s /tmp/vliwbind-store-smoke/results.jsonl || { echo "store-smoke: journal is empty"; exit 1; }
	@rm -rf /tmp/vliwbind-store-smoke
	$(GO) test ./cmd/vbind -run '^TestStoreObsSmoke$$' -count 1

# Daemon lifecycle smoke through the real binaries: vliwbindd serves on
# an ephemeral port with a journal-backed store, vbindload replays a
# kernel-mix burst including one forced-degraded and one forced-rejected
# job (zero failures allowed), then the first SIGTERM must drain cleanly
# — admission closed, stragglers settled, journal flushed — and exit 0.
serve-smoke:
	$(GO) build -o /tmp/vliwbind-smoke-vliwbindd ./cmd/vliwbindd
	$(GO) build -o /tmp/vliwbind-smoke-vbindload ./cmd/vbindload
	@set -e; \
	dir=$$(mktemp -d /tmp/vliwbind-serve-smoke.XXXXXX); \
	/tmp/vliwbind-smoke-vliwbindd -addr 127.0.0.1:0 -addr-file $$dir/addr -store-dir $$dir/store -drain 10s 2>$$dir/log & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -s $$dir/addr && break; sleep 0.1; done; \
	test -s $$dir/addr || { echo "serve-smoke: daemon never wrote its address"; cat $$dir/log; exit 1; }; \
	/tmp/vliwbind-smoke-vbindload -addr $$(cat $$dir/addr) -n 40 -c 4 -force-degraded -force-rejected | tee $$dir/report; \
	grep -E 'summary: ok=[1-9][0-9]* degraded=[1-9][0-9]* rejected=[1-9][0-9]* failed=0' $$dir/report >/dev/null \
		|| { echo "serve-smoke: burst outcomes are off (want ok>0, degraded>0, rejected>0, failed=0)"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero after SIGTERM"; cat $$dir/log; exit 1; }; \
	test -s $$dir/store/results.jsonl || { echo "serve-smoke: store journal missing after the drain"; cat $$dir/log; exit 1; }; \
	grep -q draining $$dir/log || { echo "serve-smoke: drain never logged"; cat $$dir/log; exit 1; }; \
	rm -rf $$dir; \
	echo "serve-smoke: clean burst, clean drain"

# Explorer smoke: a small exploration through the real CLI (table shape
# and frontier stars), its -json document decoded and cross-checked
# against the table by the cmd test, the pruned+parallel run compared
# line-for-line against the sequential unpruned sweep, and the engine
# property that the reported frontier equals a brute-force dominance
# recompute over the bound points.
explore-smoke:
	$(GO) run ./cmd/explore -kernel ARF -alus 3 -muls 2 -maxclusters 3 | grep 'DATAPATH'
	$(GO) run ./cmd/explore -kernel ARF -alus 3 -muls 2 -maxclusters 3 -json | grep '"points"' >/dev/null || { echo "explore-smoke: -json output has no points"; exit 1; }
	$(GO) test ./cmd/explore -run 'TestJSONOutput|TestExploreObsSmoke|TestPrunedAndParallelMatchSequential' -count 1
	$(GO) test ./internal/explore -run 'TestFrontierMatchesBruteForce|TestDeterministicAcrossPar|TestOptimisticIsLowerBound' -count 1

# Regenerate the paper's tables as benchmarks (L/M metrics per row) and
# refresh the committed perf-trajectory files (see cmd/benchjson). The
# pr6 trajectory measured only the retired incremental evaluator and is
# no longer regenerated; BENCH_pr6.json stays as history. The
# end-to-end B-ITER gate is perfbench's table-regen workload
# (bind_geomean_ms), with serve-mix cold_p50_ms for cold binds.
BENCHCOUNT ?= 6
bench: bench-json-pr7 bench-json-pr8 bench-json-pr9 bench-json-pr10
	$(GO) test -bench=. -benchmem

# Route-aware interconnect trajectory: the shared-bus virtual
# evaluation plus the routed-topology evaluation benchmarks, all of
# which must stay allocation-free.
bench-json-pr7:
	$(GO) test ./internal/problem -run '^$$' -bench 'BenchmarkEvaluate(Virtual|Ring|P2P)$$' -benchmem -count $(BENCHCOUNT) > /tmp/vliwbind-bench-pr7.txt
	$(GO) run ./cmd/benchjson -o BENCH_pr7.json \
		-zero 'BenchmarkEvaluateVirtual' \
		-zero 'BenchmarkEvaluateRing' \
		-zero 'BenchmarkEvaluateP2P' \
		/tmp/vliwbind-bench-pr7.txt
	@echo "wrote BENCH_pr7.json"

# Result-store trajectory: a served hit must be at least 8x cheaper than
# a cold bind on the same kernel (measured ~24x), and the raw lookup on
# a resident entry must be allocation-free.
bench-json-pr8:
	$(GO) test ./internal/store -run '^$$' -bench 'BenchmarkCanonicalize$$|BenchmarkStore(ResultKey|Lookup)$$' -benchmem -count $(BENCHCOUNT) > /tmp/vliwbind-bench-pr8.txt
	$(GO) test . -run '^$$' -bench 'BenchmarkStore(ColdBind|Hit)$$' -benchmem -count $(BENCHCOUNT) >> /tmp/vliwbind-bench-pr8.txt
	$(GO) run ./cmd/benchjson -o BENCH_pr8.json \
		-gate 'BenchmarkStoreColdBind/BenchmarkStoreHit>=8.0' \
		-zero 'BenchmarkStoreLookup' \
		/tmp/vliwbind-bench-pr8.txt
	@echo "wrote BENCH_pr8.json"

# Served-latency trajectory for the daemon. Gates the whole HTTP stack
# (decode, admission, store lookup, the facade's one audit of the hit,
# encode): a request answered from the warm cross-request store must be
# at least 4x cheaper than the same request cold-bound per call
# (measured ~12x). The pr8 floor covered the store seam in isolation;
# this one proves it still pays off behind vliwbindd's front door.
bench-json-pr9:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServe(Hit|ColdBind)$$' -benchmem -count $(BENCHCOUNT) > /tmp/vliwbind-bench-pr9.txt
	$(GO) run ./cmd/benchjson -o BENCH_pr9.json \
		-gate 'BenchmarkServeColdBind/BenchmarkServeHit>=4.0' \
		/tmp/vliwbind-bench-pr9.txt
	@echo "wrote BENCH_pr9.json"

# Design-space-exploration trajectory. Gates the explorer's pruning:
# the pruned, pool-parallel sweep of a 6-point space (half of it
# provably dominated before any search) must finish at least 1.5x
# faster than the sequential unpruned sweep of the same space while
# producing bit-identical surviving rows (pinned by
# TestPrunedAndParallelMatchSequential, run in explore-smoke).
bench-json-pr10:
	$(GO) test ./internal/explore -run '^$$' -bench 'BenchmarkExplore(SequentialUnpruned|PrunedPar)$$' -benchmem -count $(BENCHCOUNT) > /tmp/vliwbind-bench-pr10.txt
	$(GO) run ./cmd/benchjson -o BENCH_pr10.json \
		-gate 'BenchmarkExploreSequentialUnpruned/BenchmarkExplorePrunedPar>=1.5' \
		/tmp/vliwbind-bench-pr10.txt
	@echo "wrote BENCH_pr10.json"

# Sequential-vs-parallel engine comparison on the largest kernel.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 3x .

# One iteration of the whole-Bind engine benchmarks: BenchmarkParallelBind
# fails unless par=2/4/8 reproduce the par=1 L/M, and BenchmarkBITERFull
# runs the full B-ITER path. Cheap enough for every CI run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkParallelBind$$|BenchmarkBITERFull' -benchtime 1x . ./internal/bind

# Allocation comparison: materialized bind.Evaluate vs problem.Evaluator
# on the largest kernel (DCT-DIT-2). The virtual path must stay at least
# 5x leaner in allocs/op.
bench-alloc:
	$(GO) test ./internal/problem -run '^$$' -bench 'BenchmarkEvaluate' -benchmem

# Statistical comparison of the two evaluation paths. Needs the benchstat
# tool on PATH (golang.org/x/perf/cmd/benchstat); falls back to printing
# the raw -benchmem numbers when it is absent.
benchstat:
	$(GO) test ./internal/problem -run '^$$' -bench 'BenchmarkEvaluate' -benchmem -count 6 > /tmp/vliwbind-bench.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/vliwbind-bench.txt; \
	else \
		echo "benchstat not installed; raw numbers:"; \
		grep -E '^Benchmark' /tmp/vliwbind-bench.txt; \
	fi

# Rewrite the golden snapshots after an intentional result change.
golden:
	$(GO) test ./cmd/vliwtab -run TestGoldenTables -update
	$(GO) test ./cmd/dfgstat ./cmd/explore -run TestGoldenOutput -update
