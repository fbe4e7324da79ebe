GO ?= go

.PHONY: all build vet lint test race regress chaos chaos-restart chaos-failover fuzz check bench bench-kernels bench-sim bench-backends bench-batch bench-checkpoint bench-formats bench-repl bench-service benchmark clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet plus a failing gofmt check (gofmt -l output means a file
# is unformatted; fail loudly instead of silently listing it), plus
# staticcheck when the binary is on PATH — the container image does not
# ship it, so its absence is a skip, not a failure.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then 		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then 		staticcheck ./...; 	else 		echo "staticcheck not installed; skipping"; 	fi

test:
	$(GO) test ./...

race: regress chaos chaos-restart chaos-failover fuzz bench-backends bench-batch bench-formats bench-service
	$(GO) test -race -short ./...

# regress pins the stats-accounting fixes under the race detector: the
# stream-buffer retirement bound (and its unchanged timings) and the
# lock-free metrics histograms — plus the execution-backend seam: sim
# timings byte-identical to pre-refactor, and the goroutine-parallel
# native backend producing bit-identical results under -race — and the
# one-lane accounting: a lane that runs its kernel alone (a batch of
# one, or a lane whose decision diverged in a fused round) books
# exactly what a solo run books — and the native pull kernels: each
# hand-specialised Table I loop bit-identical to the closure loop it
# replaces, dispatched on the ring's Kind, both of PageRank's segment
# walks (run by run, and branch-free) bit-identical to it on short-run,
# long-run, hub and one-element segments, with the lane-owned scratch
# keeping steady-state PageRank under 1 MB of allocation — and the
# partition builds: every OP tile cut from the row store equal to the
# column store filtered by row range, both layouts independent of
# GOMAXPROCS, Materialize raced by eight kernels, the OP tiles cut at
# any PE count and vblock width byte-equal to the one-PE-per-tile cut
# with the degrees counted alongside, that cut and OutDegrees raced by eight
# kernels, and an engine decoding its store exactly once — and the Ligra
# baseline's counts a function of the input alone (Jacobi pull) — and
# concurrent runs: mixed algorithms sharing one engine answer exactly
# what they answer alone, and same-graph service jobs overlap inside
# one engine — and the native min-ring kernels: the flat pull and the
# closure-free dense merge bit-identical to the simulator's passes and
# mergeValue, the tile pass to RunOP, the fused CAS-min push-merge
# bit-identical to the tile pass and its scatter merge over whole BFS
# and SSSP traversals at GOMAXPROCS 1, 2 and 8 (thousands of frontier
# columns racing for one hub row), the whole-graph column index it
# reads cut from the IP arrays byte-equal to the store decode, a
# native engine that runs only BFS, SSSP and PageRank never cutting
# the OP tiles, parallelChunks tiling its range at any GOMAXPROCS, and
# native BFS/SSSP equal to a plain BFS/Bellman–Ford oracle across
# policies, geometries, sources, formats and weights that must take the
# generic passes — and the simulator's host-side structures: every
# counter and each processor's completion time of a mixed program, on
# all four configurations and five geometry/parameter variants, equal to
# digests recorded from the goroutine-and-channel scheduler, and a
# kernel panic mid-run leaving the other coroutines to finish — and the
# journal kept as one segment per leader session: appends never rotate,
# Replay reads the records back from the file, a crash mid-compaction's
# two segments open, replay and compact to one, and a follower resyncs
# a journal longer than one log response by several reads of that
# segment, answering 409 once a compaction replaced it — and the
# three long figure sweeps (Fig. 9, Fig. 10, auto
# vs static) at ScaleTiny, which plain `go test` runs at the smallest
# scale whose shapes still hold.
regress:
	$(GO) test -race -count=1 -run 'TestNativeIPSpecialisedMatchesClosure|TestNativeIPDispatchIsOnKindNotName|TestNativeOPMinRingsMatchRunOP|TestNativeIPMinRingsMatchGenericPass|TestNativeMinMergesMatchGeneric|TestParallelChunksTilesRange|TestOPTilesFromRowsMatchColumnStream|TestPartitionsIndependentOfGOMAXPROCS|TestMaterializeConcurrent|TestOPTilesIndependentOfPEsAndVBlocks|TestCutFromIPConcurrent|TestNativePushMergeMatchesOPScatterMerge|TestColumnIndexFromIPMatchesStoreDecode|TestNativePRWalksAgree' ./internal/kernels
	$(GO) test -race -count=20 -run 'TestDeterministicAcrossRuns' ./internal/ligra
	$(GO) test -race -count=1 -run 'TestLoadStreamRetirementBoundsReadyMap|TestLoadStreamTimingsUnchangedByRetirementFix|TestHBMWriteAccounting|TestDirtyEvictionsReportWriteLines|TestSchedulerTimingsPinned|TestKernelPanic' ./internal/sim
	$(GO) test -race -count=1 -run 'TestObserveJobConcurrentExact|TestWritePrometheusDuringObservations|TestTraceEndpointMatchesReport|TestHTTPLatencyHistograms|TestSameEngineJobsRunConcurrently' ./internal/service
	$(GO) test -race -count=1 -run 'TestSimBackendTimingsPinned|TestBatchOfOneIsSolo|TestDivergedLaneKeepsSoloAccounting|TestNativePageRankSteadyStateAllocs|TestTraversalOracleNative|TestEngineDecodesStoreOnce|TestNativeEngineCutsTilesLazily' ./internal/runtime
	$(GO) test -race -count=1 -run 'TestBackendEquivalence|TestBackendsMatchBaselineSpMV|TestEngineConcurrentRunsMatchSolo' .
	$(GO) test -race -count=1 -run 'TestBatchEquivalence|TestBatchPPRLanesDiffer' .
	$(GO) test -race -count=1 -run 'TestFormatEquivalence' .
	$(GO) test -race -count=1 -run 'TestJournalStaysOneSegment|TestOpenTwoSegmentsAppendsToNewer|TestJournalRotationAndCompaction' ./internal/store
	$(GO) test -race -count=1 -run 'TestAppendsBeforeFirstPollArriveByOneResync|TestCompactedSessionSegmentAnswers409' ./internal/repl
	$(GO) test -race -count=1 -run 'TestDurableTwoSegmentsCompactToOne' ./internal/service
	BENCH_FIGURES=1 $(GO) test -count=1 -run 'TestFig9Shape|TestFig10Shape|TestAutoVsStatic' ./internal/bench

# chaos runs the fault-injection suite under the race detector: hundreds
# of jobs against an armed injector (panics, errors, latency), the
# graceful-drain paths, and the overload suite (CoDel shedding, tenant
# fairness/eviction, and a four-tenant flood with one hostile tenant
# under injected faults).
chaos:
	$(GO) test -race -run 'TestChaos|TestDrain|TestOverload' -count=1 ./internal/service

# chaos-restart is the durability end-to-end: a real cosparsed child is
# SIGKILLed mid-PageRank and restarted on the same data dir; the
# resumed job must finish bit-identical to an uninterrupted run on both
# backends. The child binary is built with -race to match the test.
chaos-restart:
	$(GO) test -race -run 'TestChaosRestart' -count=1 -timeout 300s ./cmd/cosparsed

# chaos-failover is the replication end-to-end: a leader cosparsed is
# SIGKILLed with >= 8 mixed-algo jobs in flight (two mid-checkpoint,
# a fusable pair of concurrent submits queued) while a follower tails
# its journal; the follower is promoted and every job must finish
# there bit-identical to an uninterrupted run, on both backends.
chaos-failover:
	$(GO) test -race -run 'TestChaosFailover' -count=1 -timeout 300s ./cmd/cosparsed

# fuzz gives each parser fuzz target a short budget; crashes land in
# internal/gen/testdata/fuzz for triage.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseSNAP -fuzztime=10s ./internal/gen
	$(GO) test -run='^$$' -fuzz=FuzzDVCSRDecode -fuzztime=10s ./internal/matrix
	$(GO) test -run='^$$' -fuzz=FuzzDVCCSCDecode -fuzztime=10s ./internal/matrix
	$(GO) test -run='^$$' -fuzz=FuzzScanSegment -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzReadFromChunks -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/runtime
	$(GO) test -run='^$$' -fuzz=FuzzJobSubmitBody -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzReplFrame -fuzztime=10s ./internal/repl

# check is the tier-1 gate: everything must pass before a commit.
check: lint build race

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-kernels runs the native kernels' layer benchmarks on the
# scale-16 power-law graph: one IP pass per Table I row and the closure
# fallback (ns/edge), eight fused PPR lanes (ns/edge/lane), one whole
# BFS and SSSP iteration each way swept over frontier density — pull
# plus dense merge against the fused push-merge
# (BenchmarkNativeTraverse, ns/edge and ns/op) — the dense merge for PR, BFS and SSSP (ns/vertex)
# and the SpMV scatter merge (ns/elem), with allocation
# counts — then the cold engine
# build (New + first IP call + first OP call) per resident format, in
# ms/op and MB allocated/op.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkNative' -benchmem -count=5 ./internal/kernels
	$(GO) test -run '^$$' -bench 'BenchmarkEngineColdBuild' -benchtime 10x -count=5 .

# bench-sim measures the simulator's host speed: the scheduler alone
# (BenchmarkSchedule, ns per coroutine switch with a zero window) and
# the lib-sim-paper job shape — BFS + PageRank(2) on a 4096-vertex
# power-law graph, 16x16 machine (BenchmarkSimPaperJob, ns per
# simulated memory event, with allocations per job).
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule' -benchmem -count=5 ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkSimPaperJob' -benchmem -benchtime 10x -count=5 .

# bench-backends times the same PageRank run through the sim and native
# execution backends on a scale-16 power-law graph and writes
# BENCH_backends.json; it fails if native is not >= 10x faster.
# GOMAXPROCS is pinned to 1 so the headline numbers are
# scheduling-stable; the test adds a full-parallelism native leg
# internally. It then fits the native min-ring crossover (BFS+SSSP job
# time at eight candidate densities on three graphs, at full parallelism)
# into the same file's native_min_crossover_fit key.
bench-backends:
	GOMAXPROCS=1 BENCH_BACKENDS=1 $(GO) test -count=1 -run 'TestBenchBackends|TestBenchCrossoverFit' -v .

# bench-batch measures what fusing same-graph jobs buys end to end: 64
# concurrent clients submit the same native PPR workload to a service
# with the coalescer off and with groups of up to 8 lanes (the cap,
# kernels.LaneBlock) — 5 repetitions per leg. Solo and fused jobs run the same loop and
# the same native kernel, so the ratio is lane amortization net of the
# gather window, against unbatched jobs running concurrently on the
# shared engine. BENCH_batch.json records per-leg median and IQR
# jobs/sec with host metadata; there is no speedup gate — the run fails
# only on a failed job or a lane whose answer differs from the
# unbatched run.
# Part of the race tier, but the benchmark binary itself is built
# without -race: tsan's shadow memory skews the ratio into noise, and
# the coalescer's rendezvous is already race-tested by regress and the
# chaos suites.
bench-batch:
	BENCH_BATCH=1 $(GO) test -count=1 -run TestBenchBatch -v -timeout 600s ./internal/service

# bench-checkpoint measures the wall-clock cost of checkpointing native
# PageRank at the service's default interval (snapshots through the
# real fsync'd store) and writes internal/runtime/BENCH_checkpoint.json;
# it fails if the overhead exceeds the 5% durability budget.
bench-checkpoint:
	BENCH_CHECKPOINT=1 $(GO) test -count=1 -run TestBenchCheckpointOverhead -v ./internal/runtime

# bench-formats compares the CSR baseline with delta-varint (dvcsr)
# compressed storage on a scale-16 power-law graph: resident bytes,
# native PageRank wall-clock through the decode-at-build seam (median
# of five fresh engines per format) and how many graphs one memory
# budget admits. Results land in BENCH_formats.json; the run fails
# under 1.5x dvcsr compression, over 1.3x native slowdown or under
# 1.5x admitted graphs.
bench-formats:
	BENCH_FORMATS=1 $(GO) test -count=1 -run TestBenchFormats -v .

# bench-service is the overload-robustness gate: the cosparse-bench
# harness self-hosts a service, finds its saturation knee closed-loop,
# then drives it open-loop at 0.5x/1x/2x the knee. Results land in
# BENCH_service.json at the repo root; the run fails if goodput at 2x
# overload retains less than 80% of knee goodput, or if nothing is
# shed at 2x (admission control not engaging). Built without -race for
# the same reason as bench-batch: the ratio is the product.
bench-service:
	BENCH_SERVICE=1 $(GO) test -count=1 -run TestBenchService -v -timeout 600s ./cmd/cosparse-bench

# bench-repl measures what the semisync follower-ack costs a submit:
# 16 concurrent clients time the submit POST against a leader with a
# caught-up local follower in async and semisync modes; results land
# in BENCH_repl.json and the run fails if the semisync p50 is >= 2x
# the async p50 on localhost.
bench-repl:
	BENCH_REPL=1 $(GO) test -count=1 -run TestBenchRepl -v -timeout 600s ./internal/service

# benchmark is the repository's one benchmark (BENCHMARK.json): six
# workloads, end-to-end and per-layer metrics, results in
# benchmark/out/result.json. `$(GO) run ./benchmark compare A.json
# B.json` judges two result files metric by metric.
benchmark:
	$(GO) run ./benchmark

clean:
	$(GO) clean ./...
