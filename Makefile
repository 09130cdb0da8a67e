# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test test-race race smoke bench cover loc knobs microbench results quick vet fmt trace

all: build vet test test-race smoke cover knobs

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

test:
	go test ./...

# The whole tree once under the race detector, then, repeated, the tests
# whose outcome depends on what varies from run to run: which worker resumes
# which partition's coroutines, which procs a coroutine runs in a row, and
# which records the free lists hand out and take back. A new such test joins
# a selection here; CI's "Test (race)" step runs this target.
test-race:
	go test -race ./...
	go test -race -count=10 -run 'TestGroup|TestShutdown|TestProcPanic|TestTask|TestChainServers|TestNowQueue|TestServe|TestWaitInPlace|TestSleeperParked|TestHandoff|TestQueued|TestDeadline|TestAwaitingProcCountsOnce|FuzzEventQueue|TestLink|TestAddNodeTwice' ./internal/sim
	go test -race -count=10 -run 'TestRecycled|TestReadReturnDMAError|TestShipmentPaths|TestBatchPaths|TestReadPaths|TestNotifyFrames|TestBatchFrameDecodes' ./internal/core
	go test -race -count=10 -run 'TestFaultPaths|TestMonitorFailureReport|TestOpWorkerPaths|TestStoreError|TestStreamChunks|TestOpRecordsRecycled' ./internal/osd
	go test -race -count=10 -run 'TestTxcRecycled|TestTaskForms|TestIndex' ./internal/bluestore
	go test -race -count=10 -run 'TestNotify|TestChargeThenReadsItsRequest' ./internal/rpcchan
	go test -race -count=10 -run 'TestFramesRecycled|TestSessionReset|TestLanes' ./internal/messenger
	go test -race -count=10 -run 'TestClientOp|TestReplyZeroedAfterDispatch' ./internal/rados
	go test -race -count=3 -run 'TestScaleOutMixedRead|TestScaleOutBitIdentical' ./internal/cluster

race: test-race

# Every experiment of the registry (docephbench -exp list) under the race
# detector, each at its registry-declared smoke window, with the runner's
# engagement checks live: a knob that silently stopped doing anything, a data
# race in the kernel's barrier/delivery machinery, or simulated-result drift
# across kernel worker counts fails the run.
smoke:
	go run -race ./cmd/docephbench -exp smoke

# The paper's full methodology (60 s windows): every table and figure, into
# the git-ignored results_full.txt.
results:
	go run ./cmd/docephbench -exp all | tee results_full.txt

# Fast shape-preserving runs for CI.
quick:
	go run ./cmd/docephbench -quick -exp all

# The wall-clock benchmark (benchmark/README.md): BENCHMARK.json's six
# workloads on both clocks, with the per-layer ledger. Fails on op errors,
# read-back mismatches, disengaged paths, trace-invariant violations and
# repetitions that disagree.
bench:
	bash benchmark/run.sh

# Per-package statement-coverage floors for the offload-critical packages;
# see scripts/covergate.sh for the recorded floors.
cover:
	./scripts/covergate.sh

# Non-test Go lines per package and in total, benchmark/ excluded: the
# figure a simplifying PR reports before and after (scripts/loc.sh <clone of
# the parent> gives the "before").
loc:
	./scripts/loc.sh

# Fields of every `type …Config struct` per package and in total, against
# the ceiling recorded in scripts/knobs.sh: the count only goes down.
knobs:
	./scripts/knobs.sh

# Traced benchmark: per-stage CPU/latency tables for both deployments plus
# Chrome trace_event JSON for chrome://tracing or ui.perfetto.dev.
trace:
	go run ./cmd/docephbench -exp trace -quick -trace-out trace

# Go micro-benchmarks (wire codec, heap, etc.).
microbench:
	go test -bench=. -benchmem -benchtime=1x ./...
