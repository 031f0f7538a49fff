# Developer and CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, staticcheck, build, the full test suite under the
# race detector (the solvers' pool fan-outs, the daemon's concurrent
# readers and the cancellation tests of every engine's teardown make the
# race run load-bearing, not ceremonial), and one pass over every
# benchmark so the perf harness itself cannot rot.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all vet staticcheck build test race bench bench-json ci fuzz faultmatrix loadtest scenarios cluster perfbench examples

all: build

# gofmt drift fails the gate too. Listing tracked files keeps build output
# (such as the benchmark's .bench_build/ module cache) out of the scan.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Skips with a notice when the binary is absent so offline checkouts still
# pass `make ci`; the GitHub workflow installs a pinned version.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then 		$(STATICCHECK) ./...; 	else 		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; 	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: checks the harness runs, not the numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Machine-readable engine benchmarks: the six-method comparison
# (BenchmarkSolve) plus the AGT-RAM engine comparison at Table-1 scale
# (M=48), M=500 and M=1000 — including the incremental engine's
# w1/w2/w4/w8 worker sweep, which varies only its arena build — the
# candidate-list builds alone (cold and warm arena, per-server agents),
# the distance-oracle micro-benchmarks, the dense/CSR/landmark solve matrix
# at M=1k and (BENCH_M10K=1, set here) M=10k with its rss-MiB
# peak-memory column, the routing-plane comparison (HTTP single vs batch
# vs client-side, routes/s column), and the cluster
# solve comparison with its per-phase metrics (region-solve-ns,
# assign-bytes, ... — gated in CI via benchjson -gate-metrics) — parsed
# into a JSON artifact (BENCH_*.json, CI regression gate). Tune with
#   make bench-json BENCH_PATTERN='AGTRAMEnginesLarge' BENCHTIME=10x BENCH_OUT=pr.json
BENCH_PATTERN ?= AGTRAMEngines|Solve$$|DistOracle|CandidateBuild
BENCHTIME ?= 5x
BENCH_OUT ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCHTIME) . > bench.out
	BENCH_M10K=1 $(GO) test -run '^$$' -bench 'OracleSolve/M10k' -benchmem -benchtime 1x . >> bench.out
	$(GO) test -run '^$$' -bench 'RoutingPlane' -benchmem -benchtime $(BENCHTIME) ./internal/server >> bench.out
	$(GO) test -run '^$$' -bench 'ClusterSolve' -benchmem -benchtime $(BENCHTIME) ./internal/cluster >> bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# loadtest, scenarios and cluster parse their benchmarks into bench-out/,
# which git ignores, so a routine run leaves the tracked baselines
# (BENCH_7.json, BENCH_8.json, BENCH_10.json) alone. Name a tracked file to
# refresh it, e.g. make cluster CLUSTER_JSON=BENCH_10.json.
LOADTEST_JSON ?= bench-out/BENCH_7.json
SCENARIOS_JSON ?= bench-out/BENCH_8.json
CLUSTER_JSON ?= bench-out/BENCH_10.json

# The fault-matrix suite: injected crashes, truncated frames, severed and
# slow links and infeasible bids against both wire engines, plus the
# fault-free differential check and the frame codec both wire protocols
# share, run twice under the race detector so eviction paths and teardown
# cannot hide behind a lucky schedule.
faultmatrix:
	$(GO) test -race -count=2 -run 'TestFault|TestSolveTCP|TestEvicted|TestDifferentialEngines' ./internal/agtram
	$(GO) test -race -count=2 ./internal/faultnet ./internal/frame

# The daemon's concurrency load tests plus the routing-plane benchmark.
# Load: /route reads race delta batches and background solves; SSE/long-poll
# epoch subscribers verify a gapless version sequence under the same churn;
# the controller-level journal suite, the copy-on-write isolation test (a
# reader walks a published epoch's demand rows while the next batch
# rewrites them) and the routing client's differential tests run
# alongside — all under the race detector with goroutine-leak
# checking, twice so the RCU swap cannot pass on one lucky schedule.
# Bench: server-side vs client-side routing throughput (routes/s + tail
# latency), parsed into LOADTEST_JSON.
loadtest:
	$(GO) test -race -count=2 -run 'TestRouteUnderConcurrentDeltas|TestEpochStreamUnderLoad|TestRouteHandlerZeroAlloc' ./internal/server
	$(GO) test -race -count=2 -run 'TestConcurrentSubscribersGapless|TestSubscribe|TestSlowSubscriber|TestDrainSubscribers|TestCopyOnWriteIsolation' ./internal/online
	$(GO) test -race -count=2 ./internal/routing
	$(GO) test -run '^$$' -bench 'RoutingPlane' -benchmem -benchtime 2s ./internal/server | tee routing_bench.out
	@mkdir -p $(dir $(LOADTEST_JSON))
	$(GO) run ./cmd/benchjson -o $(LOADTEST_JSON) < routing_bench.out
	@rm -f routing_bench.out

# The adversarial-workload scenario matrix. Tests: every registered method
# through every scenario class (flash crowd, diurnal wave, correlated
# failures, rolling topology) with epoch-stream clients verifying routes
# bit-identically, leak-checked under the race detector, twice so generator
# purity and the controller's churn paths cannot pass on one lucky
# schedule. Bench: the full scenario x method matrix with per-tick
# re-solves (savings-pct + solverwork/op columns), parsed into
# SCENARIOS_JSON.
scenarios:
	$(GO) test -race -count=2 -run 'TestScenario|TestRunScenario|TestCompose' ./internal/sim
	$(GO) test -run '^$$' -bench 'ScenarioMatrix' -benchmem -benchtime 1x . | tee scenario_bench.out
	@mkdir -p $(dir $(SCENARIOS_JSON))
	$(GO) run ./cmd/benchjson -o $(SCENARIOS_JSON) < scenario_bench.out
	@rm -f scenario_bench.out

# The cluster plane's differential and fault suites. Differential: a
# 1-shard cluster must reproduce the single daemon bit-identically —
# placements, payments, versions, route answers — across deltas, solves and
# membership churn. Fault matrix: coordinator crash mid-epoch (shards
# degrade to autonomous and recover), shard eviction (re-partition onto the
# survivors, stale-generation fencing over real RPC), plus the RPC/
# membership transports, and hierarchy.Solve's in-process failures of the
# top level and of regions (the shard's degradation switch shares only the
# hierarchy.Mode type with them) — all leak-checked under the race
# detector, twice so probe loops and teardown cannot pass on one lucky
# schedule. Bench: multi-shard vs single-daemon solve wall-clock at M=1000
# with per-phase metrics (partition/ship/regional-solve/merge, wire bytes
# per assignment), parsed into CLUSTER_JSON. 5 iterations so the steady
# state dominates the cold first merge: every solve after the first
# re-solves the regions onto the same placements, so the merge memo's
# content gate publishes nothing, and the pooled frames are warm. The churn rows (shards=2/churn,
# shards=4/churn) apply one untimed diurnal batch before each timed solve,
# so every timed merge carries the union and runs the boundary exchange.
# The paper-size rows (BenchmarkClusterSolvePaper) skip unless
# BENCH_PAPER=1.
cluster:
	$(GO) test -race -count=2 ./internal/cluster
	$(GO) test -race -count=2 -run 'TestTopFails|TestFailedRegions|TestAllRegionsFailed|TestCancelledDuringDegraded' ./internal/hierarchy
	$(GO) test -run '^$$' -bench 'ClusterSolve' -benchmem -benchtime 5x ./internal/cluster | tee cluster_bench.out
	@mkdir -p $(dir $(CLUSTER_JSON))
	$(GO) run ./cmd/benchjson -o $(CLUSTER_JSON) < cluster_bench.out
	@rm -f cluster_bench.out

# Short smoke of each fuzz target beyond its checked-in corpus; CI's fuzz
# job runs it on every push and pull request.
fuzz:
	$(GO) test -fuzz FuzzSchemaPlaceRemove -fuzztime 10s ./internal/replication
	$(GO) test -fuzz FuzzRestorePlacement -fuzztime 10s ./internal/replication
	$(GO) test -fuzz FuzzCarryOver -fuzztime 10s ./internal/replication
	$(GO) test -fuzz FuzzShortestPaths -fuzztime 10s ./internal/topology
	$(GO) test -fuzz FuzzTreeOracleLCA -fuzztime 10s ./internal/distoracle
	$(GO) test -fuzz FuzzReadBinary -fuzztime 10s ./internal/trace
	$(GO) test -fuzz FuzzReadCLF -fuzztime 10s ./internal/trace
	$(GO) test -fuzz FuzzDeltasDecoder -fuzztime 10s ./internal/server
	$(GO) test -fuzz FuzzDecodeDeltas -fuzztime 10s ./internal/online
	$(GO) test -fuzz FuzzMask -fuzztime 10s ./internal/online
	$(GO) test -fuzz FuzzNewFromState -fuzztime 10s ./internal/online
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 10s ./internal/frame
	$(GO) test -fuzz FuzzGameMsg -fuzztime 10s ./internal/agtram
	$(GO) test -fuzz FuzzSolveReply -fuzztime 10s ./internal/cluster
	$(GO) test -fuzz FuzzAssign -fuzztime 10s ./internal/cluster
	$(GO) test -fuzz FuzzEpochsClient -fuzztime 10s ./internal/routing

# Every example under examples/ built once into a temporary directory and
# run to completion: `go build ./...` compiles them but runs none, and
# examples/migration and examples/regions drive the adaptive and hierarchy
# code. A non-zero exit fails the target. The examples that serve HTTP
# listen on 127.0.0.1:0.
examples:
	@bin="$$(mktemp -d)" && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/" ./examples/... && \
	for ex in $$(ls "$$bin"); do \
		echo "== examples/$$ex"; \
		"$$bin/$$ex" || { echo "examples/$$ex exited non-zero"; exit 1; }; \
	done

# The benchmark harness is a Go module of its own (perfbench/go.mod), so the
# root `go test ./...` and `make race` never build it. This vets it and runs
# its tests: same-seed fingerprints and delta schedules, pool order, span
# self time, and metric names and units against BENCHMARK.json.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: vet staticcheck build race examples loadtest scenarios faultmatrix cluster perfbench bench
