GO ?= go

.PHONY: check fmt vet build test race race-serving race-serve race-pipeline race-persist soak chaos chaos-smoke fuzz-smoke serve-demo kbbench bench bench-ground bench-finish bench-incupdate bench-replicas bench-serving bench-hotpath bench-hotpath-full bench-pipeline bench-pipeline-full bench-persist profile

# Everything CI runs. (go test ./... includes the short soak; the full
# acceptance-length soak is `make soak`.)
check: fmt vet build test race race-serving race-serve chaos-smoke fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel and replica samplers' sweeps fan out across goroutines
# (including the shard-local conditional-cache fills/invalidation),
# patched graphs share pool backing arrays across the lineage, and the
# learner drives those samplers' fan-out between weight steps under any
# runtime; run all three packages under the race detector (covers the
# cached-state and differential tests). internal/ground's parallel delta grounding has
# workers run compiled plans over internal/db's in-place indexes and
# old-state view concurrently, so both are in the set. internal/inc drives
# the samplers (materialization on the configured runtime, the sharded
# sampling runner, the variational runner's swept remainder) over graphs a
# patch lineage shares.
race:
	$(GO) test -race ./internal/gibbs/... ./internal/factor/... ./internal/learn/... ./internal/inc/... ./internal/ground/... ./internal/db/...

# The serving API's concurrency proof: lock-free snapshot readers
# against live Apply/queue writers, context cancellation, coalescing,
# and the finish stage's store refills (engine swaps vs readers, a refill
# cancelled with its update).
race-serving:
	$(GO) test -race -count=1 -run 'TestSnapshot|TestKBContext|TestCoalesce|TestQueue|TestApplyModifies|TestCancelled|TestRemat' .

# The HTTP serving tier's concurrency proof: concurrent wire readers and
# SSE subscribers against the live pipelined writer (epoch monotonicity
# per subscriber, a deliberately stalled client cannot delay a publish),
# plus the internal/serve handler and hub suite (overload shedding,
# typed refusals, drain, Last-Event-ID resume).
race-serve:
	$(GO) test -race -count=1 -run 'TestServeHTTP|TestProgressPublish' .
	$(GO) test -race -count=1 ./internal/serve/

# Interactive demo of the network serving tier: builds and materializes
# the News KB, serves it on :8090, and streams the rule iterations
# through the update queue while it runs. Curl the printed endpoints.
serve-demo:
	$(GO) run ./cmd/deepdive -system News -serve 127.0.0.1:8090 -serve-for 30s

# The quality-autopilot oracle soak at acceptance length: 200 queued
# updates growing a chain past the enumeration bound (the only kind of
# component that reaches the optimizer) against an undersized store in all
# three modes (autopilot, cumulative-only, static lesion), checkpoint
# marginals vs a from-scratch inference oracle. The short variant (60
# updates) runs in the plain test suite.
soak:
	SOAK_UPDATES=200 $(GO) test -run 'TestSoak' -v -timeout 40m -count=1 .

# The ground→learn→infer pipeline's concurrency proof: the pipelined
# queue's bit-identical differential against the serialized lesion,
# per-ticket cancellation, CloseNow teardown, and snapshot readers
# racing a parallel-grounded pipelined stream.
race-pipeline:
	$(GO) test -race -count=1 -run 'TestPipelined|TestSubmitCtx|TestQueueCloseNow|TestSnapshotReadersDuringPipelinedStream' .
	$(GO) test -race -count=1 ./internal/ground/

# The durability proof under the race detector: checkpoint/restart,
# every crash kill point vs the never-crashed oracle, WAL replay
# determinism per worker count, plus the degraded-mode state machine
# (fault-injected WAL breaks, background auto-repair, read-only
# escalation, the wedged no-repair lesion) and the persist-layer
# container/WAL/fault-injector unit suite.
race-persist:
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestCrash|TestWALRe|TestAutoRepair|TestReadOnly' .
	$(GO) test -race -count=1 ./internal/persist/

# Randomized degraded-mode soak under -race: a seeded schedule of seven
# fault classes (WAL append EIO/ENOSPC, sticky WAL-rotation failure,
# snapshot EIO, fsync stalls, queue bursts, stalled subscribers) against
# the full HTTP serving stack, asserting zero acked-update loss, zero
# read/health-probe unavailability, typed-only refusals, auto-repair
# with no operator action, a bit-identical crash-restart coda, and the
# wedged auto-repair lesion. `chaos` runs a 10s window and records
# BENCH_chaos.json; `chaos-smoke` runs the short default window.
chaos:
	CHAOS_SECONDS=10 CHAOS_JSON=BENCH_chaos.json $(GO) test -race -count=1 -run 'TestChaosSoak' -v -timeout 20m .

chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSoak' .

# Short native-fuzz pass over the datalog parser (no-panic + String
# round-trip); extend -fuzztime for a real hunt.
fuzz-smoke:
	$(GO) test ./internal/datalog -run='^$$' -fuzz=FuzzDatalogParser -fuzztime=10s

# The repository's benchmark (BENCHMARK.json; bench/README.md): one
# workload of the served-KB harness, e.g.
#   make kbbench W=stream_docs SEED=3 TRACE=1
W ?= devloop_rules
SEED ?= 1
TRACE ?= 0
kbbench:
	bash bench/run.sh --workload $(W) --seed $(SEED) --seconds 25 --trace $(TRACE)

bench:
	$(GO) test -bench='SamplerSequentialCorpus|SamplerParallelCorpus|GibbsSweep' -run=xxx .

# The grounding join engine alone: full-rule evaluation and a
# one-document delta on a 500- and a 2000-sentence corpus, with
# allocations.
bench-ground:
	$(GO) test -bench='GroundFullRule|GroundDocDelta' -benchmem -run=xxx ./internal/ground/

# The finish stage's scaling check: 64 document deltas through KB.Apply
# on the served News corpus at 1× and 4× the documents, then the six rule
# iterations at 1× and 4× the candidates (the added ones query-only);
# reports ns/update, the x4/x1 ratio and, for the rule updates, the
# ground/learn/infer split, the learn stage's own ratio and how many dirty
# variables an update left to the optimizer's strategy (swept-vars/update:
# 0 when every dirty component was solved exactly on the patched graph), and
# the three from-scratch passes of set-up (Materialize, Infer, Learn) at 1×
# and 4× (a single pass; repeat it, wall clock on a small box swings ±10 %).
# CI runs it as the finish-stage smoke.
bench-finish:
	$(GO) test -bench='ApplyDocDelta|ApplyRuleDelta|^BenchmarkMaterialize$$|InferFromScratch|LearnFromScratch' -benchtime=1x -run=xxx .

# Δ-vs-full graph update cost (results recorded in BENCH_incupdate.json).
bench-incupdate:
	$(GO) test -bench='ApplyUpdatePatched|ApplyUpdateRebuild' -run=xxx .

# Replica vs sharded sampler throughput (results recorded in
# BENCH_replicas.json). The smoke variant runs the 1-worker pair once.
bench-replicas:
	$(GO) test -bench='ReplicaVsShardedCorpus/mode=(sharded|replica)/workers=1$$' -benchtime=1x -run=xxx .

# Snapshot-read throughput with and without a concurrent writer (results
# recorded in BENCH_serving.json). Smoke: one short cell per column.
bench-serving:
	$(GO) test -bench='ServingThroughput/readers=1' -benchtime=0.1s -run=xxx .

# Gibbs hot-path suite (results recorded in BENCH_hotpath.json): corpus
# sweep throughput on all three runtimes, the near-convergence regime the
# conditional cache targets (with its no-cache lesion), and the
# estimator/store micro-benchmarks. The smoke variant runs one short
# near-convergence cell.
bench-hotpath:
	$(GO) test -bench='SamplerNearConvergenceCorpus/mode=sequential$$' -benchtime=1x -run=xxx .

# Full hot-path sweep, one iteration of the min-of-6 protocol.
bench-hotpath-full:
	$(GO) test -bench='SamplerSequentialCorpus$$|SamplerParallelCorpus$$|SamplerNearConvergenceCorpus|ReplicaVsShardedCorpus/mode=(sharded|replica)/workers=4$$' -benchtime=400ms -run=xxx .
	$(GO) test ./internal/gibbs -bench='EstimatorObserve|StoreAdd' -benchtime=200ms -run=xxx

# Stage-overlapped update pipeline vs the serialized lesion, plus the
# sharded delta-grounding bench (results recorded in BENCH_pipeline.json;
# run each with -count=6 and take minima for the recorded protocol). The
# smoke variant runs one short extractor-regime pair.
bench-pipeline:
	$(GO) test -bench='PipelineThroughput/udf=extractor' -benchtime=1x -run=xxx .
	$(GO) test -bench='ApplyUpdateParallel/udf=extractor' -benchtime=1x -run=xxx ./internal/ground/

# Full pipeline suite, one iteration of the min-of-6 protocol.
bench-pipeline-full:
	$(GO) test -bench='PipelineThroughput' -benchtime=4x -run=xxx .
	$(GO) test -bench='ApplyUpdateParallel' -benchtime=3x -run=xxx ./internal/ground/

# Cold start from snapshot vs re-materializing from scratch at the same
# sample budget, plus WAL replay throughput (results recorded in
# BENCH_persist.json; run with -benchtime=2s -count=6 and take minima
# for the recorded protocol). The smoke variant runs each once.
bench-persist:
	$(GO) test -bench='ColdStartFromSnapshot|RematerializeFromScratch|WALReplay' -benchtime=1x -run=xxx .

# CPU-profile the corpus sweep benchmark under pprof; cmd/deepdive takes
# the same -cpuprofile/-memprofile flags for whole-pipeline profiles.
profile:
	$(GO) test -bench='SamplerSequentialCorpus$$' -benchtime=2s -run=xxx -cpuprofile=cpu.prof -memprofile=mem.prof .
	@echo "inspect with: go tool pprof deepdive.test cpu.prof"
