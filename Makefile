GO ?= go

.PHONY: check fmt vet build test race race-serving race-serve race-persist bench-harness figures-smoke soak chaos chaos-smoke fuzz-smoke serve-demo kbbench bench bench-ground bench-finish profile

# Everything CI runs. (go test ./... includes the short soak; the full
# acceptance-length soak is `make soak`.)
check: fmt vet build test race race-serving race-serve race-persist bench-harness figures-smoke chaos-smoke fuzz-smoke

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
# (including the shard-local conditional-cache fills/invalidation), their
# workers read the overflow rows of graphs patched in place, and the
# learner drives those samplers' fan-out between weight steps under any
# runtime; run all three packages under the race detector (covers the
# cached-state and differential tests). internal/ground's parallel grounding
# — every update's, the initial grounding's too — has workers run compiled
# plans over internal/db's in-place indexes and old-state view
# concurrently, so both are in the set, with the loaded-evidence regression
# test (TestLoadBaseIsTheFirstUpdate). internal/inc drives
# the samplers (materialization and the rerun on the configured runtime,
# the variational runner's swept remainder) and its one Metropolis-Hastings
# runner over the engine's Pr(0) clone and the patched graph.
race:
	$(GO) test -race ./internal/gibbs/... ./internal/factor/... ./internal/learn/... ./internal/inc/... ./internal/ground/... ./internal/db/...

# The serving API's concurrency proof: lock-free snapshot readers
# against live Apply/queue writers (a parallel-grounded queued stream
# among them), concurrent Apply callers serializing on the writer lock
# into one epoch stream, the queue's differential against direct Apply,
# context and per-ticket cancellation, CloseNow teardown, coalescing, and
# the store refills the finish stage runs in line (a refilled engine vs
# readers, a refill cancelled with its update).
race-serving:
	$(GO) test -race -count=1 -run 'TestSnapshot|TestKBContext|TestCoalesce|TestQueue|TestSubmitCtx|TestConcurrentApplies|TestApplyModifies|TestCancelled|TestRemat' .

# The HTTP serving tier's concurrency proof: concurrent wire readers and
# SSE subscribers against the live queued writer (epoch monotonicity
# per subscriber, a deliberately stalled client cannot delay a publish),
# plus the internal/serve handler and hub suite (overload shedding,
# typed refusals, drain, Last-Event-ID resume).
race-serve:
	$(GO) test -race -count=1 -run 'TestServeHTTP|TestProgressPublish' .
	$(GO) test -race -count=1 ./internal/serve/

# The benchmark harness (bench/, BENCHMARK.json) is its own Go module, so
# the root vet and test never reach it: vet it and run its smoke.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The paper figures on the served stack: the development loop (Fig. 10a)
# and the decomposition lesion (Fig. 14).
figures-smoke:
	$(GO) run ./cmd/deepdive-exp f10a f14

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
# wedged auto-repair lesion. `chaos` runs a 10s window; `chaos-smoke`
# runs the short default window.
chaos:
	CHAOS_SECONDS=10 $(GO) test -race -count=1 -run 'TestChaosSoak' -v -timeout 20m .

chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSoak' .

# Short native-fuzz passes over the six untrusted-input decoders: the
# datalog parser (no-panic + String round-trip), the wire update body (any
# body answered 200/400/409/413, the queue still live), the WAL record
# decoder, the grounder snapshot decoder, the graph snapshot decoder and the
# engine snapshot decoder (each: refuse or round-trip, allocation bounded by
# the input); extend -fuzztime for a real hunt.
fuzz-smoke:
	$(GO) test ./internal/datalog -run='^$$' -fuzz='^FuzzDatalogParser$$' -fuzztime=10s
	$(GO) test . -run='^$$' -fuzz='^FuzzServeUpdateBody$$' -fuzztime=10s
	$(GO) test . -run='^$$' -fuzz='^FuzzDecodeUpdate$$' -fuzztime=10s
	$(GO) test ./internal/ground -run='^$$' -fuzz='^FuzzRestoreGrounder$$' -fuzztime=10s
	$(GO) test ./internal/factor -run='^$$' -fuzz='^FuzzDecodeGraphSnapshot$$' -fuzztime=10s
	$(GO) test ./internal/inc -run='^$$' -fuzz='^FuzzRestoreEngine$$' -fuzztime=10s

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

# The grounder alone (join engine and binding application): full-rule
# evaluation and a one-document delta on a 500- and a 2000-sentence
# corpus, and the grounder snapshot's decode (Restore: slabs read back,
# lookup tables rebuilt) at both sizes, with allocations.
# TestGroundAllocationsPerGrounding holds the first one's allocs/op per
# grounding in tier-1.
bench-ground:
	$(GO) test -bench='GroundFullRule|GroundDocDelta|GroundRestore' -benchmem -run=xxx ./internal/ground/

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

# CPU-profile the corpus sweep benchmark under pprof; cmd/deepdive takes
# the same -cpuprofile/-memprofile flags for whole-pipeline profiles.
profile:
	$(GO) test -bench='SamplerSequentialCorpus$$' -benchtime=2s -run=xxx -cpuprofile=cpu.prof -memprofile=mem.prof .
	@echo "inspect with: go tool pprof deepdive.test cpu.prof"
