#!/usr/bin/env sh
# CI gate: formatting, vet, then the full test suite under the race
# detector so the campaign runner's worker pool (internal/runner,
# internal/expers campaign tests) is exercised with -race.
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
# perfbench/ is its own module (it imports runner, resultstore, obs and
# tracez through a replace directive), so ./... never compiles it: vet
# it here so an internal API change that breaks the benchmark harness
# fails the gate.
(cd perfbench && go vet ./...)
go build ./...
go test -race ./...

# Hot-path allocation regression gates: a cache demand access and a
# steady-state DPCS policy tick must stay at 0 allocs/op, the batched
# simulator inner loop must simulate a whole block without heap
# allocation, and the metric observation paths must be allocation-free
# once the series handle is resolved.
go test -count=1 -run 'TestAccessZeroAllocs' ./internal/cache
go test -count=1 -run 'TestPolicyTickZeroAllocs' ./internal/core
go test -count=1 -run 'TestBlockLoopZeroAllocs' ./internal/cpusim
go test -count=1 -run 'TestHotPathMetricsAllocFree' ./internal/obs

# Tracing gates: the span API must cost nothing when tracing is off
# (nil-tracer fast path), a traced campaign must leave results.jsonl
# byte-identical to an untraced one, and every kind call must run under
# its kind/cell pprof labels, inherited by the cell's trace-pipe
# producer goroutine (DESIGN.md §11).
go test -count=1 -run 'TestTracingOffZeroAllocs' ./internal/obs/tracez
go test -count=1 -run 'TestTracingDoesNotChangeResults|TestKindCallCarriesPprofLabels' ./internal/runner
go test -count=1 -run 'TestPipeProducerCarriesCellLabels' ./internal/expers

# Arena/memo gates (DESIGN.md §13): analytical cells must stay at
# <= 10 allocs/op once the memo layer is warm, warm (arena-reused)
# campaign output must be byte-identical to cold at every worker count,
# and the memo table must serve concurrent readers race-free.
go test -count=1 -run 'TestAnalyticalSteadyStateAllocs' ./internal/expers
go test -count=1 -run 'TestArenaDifferential' ./internal/expers
go test -count=1 -race -run 'TestTableConcurrentReads' ./internal/memo

# Mechanism-registry gates (DESIGN.md §14): every registered mechanism
# must surface in the Fig. 3 comparison surfaces its capability flags
# promise, the "mechs" study must cover the registry, and the adapters
# must reproduce the pre-registry model call paths float-for-float.
go test -count=1 -run 'TestRegistryCompleteness|TestMechStudyCoversRegistry' ./internal/expers
go test -count=1 -run 'TestAdapterDifferential' ./internal/mechanism
go test -count=1 -run 'TestKeyGoldenFixtures|TestKeyMechVersionBump' ./internal/resultstore

# One spec, one campaign (DESIGN.md §9): a sim, sweep or multicore
# document run by `pcs sim|sweep|multicore -spec` must leave exactly one
# run dir whose results.jsonl is byte-identical to the same document
# served through POST /campaigns; flags beat PCS_<FLAG> beats the spec
# beats the default; and every shipped examples/ spec must load and
# expand to a non-empty campaign.
go test -count=1 -run 'TestLocalMatchesServed|TestFlagEnvSpecPrecedence' ./cmd/pcs
go test -count=1 -run 'TestShippedSpecsExpand' ./internal/config

# One lifecycle stream (DESIGN.md §11.4): for done, failed-cell and
# cancelled served campaigns the status, /events and timeline.jsonl
# agree on the state and the served events equal the file's, under
# the race detector and repeated. One store size (DESIGN.md §10): the
# scraped resultstore_bytes gauge equals a fresh walk after repeated
# Puts of one key.
go test -count=10 -race -run 'TestServedLifecycleMatchesTimeline|TestServedRunErrorClosesStream' ./internal/runner
go test -count=1 -run 'TestScrapeMatchesWalkAfterOverwrite|TestScrapeSizeBytesRefresh' ./internal/resultstore

# Campaign-cell throughput smoke: one cold and one warm pass of the
# mixed grid so the end-to-end cells/sec benchmark stays runnable; the
# archived numbers come from `make bench`.
go test -run '^$' -bench 'BenchmarkCampaignCellThroughput' -benchtime 1x . > /dev/null

# Short-mode benchmark smoke run: one iteration of every benchmark so a
# crashing or pathologically slow benchmark fails the gate; timings are
# not archived here (that is `make bench`).
go test -short -run '^$' -bench . -benchtime 1x -benchmem . ./internal/core ./internal/obs > /dev/null

# Throughput regression gate: fail if the simulator inner loop has
# regressed more than 10% versus the newest committed BENCH_*.json
# steady-state snapshot (best-of on both sides; see benchgate.sh).
sh scripts/benchgate.sh
