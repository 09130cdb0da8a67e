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

# One goroutine runs at a time per cluster by design; the race run guards
# the places control changes goroutines: every coroutine switch between the
# kernel and a proc, tasks run inline by whichever of them holds control
# (queued as themselves or on a token, and dropped by Shutdown at any point
# of a seeded program), timed waits through each outcome of their deadline, a
# proc suspended on a task form — every blocking call of a proc is one —
# resumed by the chain that ends it (and unwound by Shutdown when it never
# ends, counted once in LiveProcs and deadlock reports until then), a
# coroutine running several procs' bodies in a row, and Group workers
# resuming the same partition's procs — and draining its now-queue, which the
# barrier filled — from different goroutines in successive windows (repeated,
# since which worker picks up which partition varies from run to run) — and
# the crossing records the per-partition free lists hand out and take back
# on both sides of the bridge, the transaction shipments whose fallback
# paths take them out of order, the batched-frame path's chains on their
# fallback, probe, flush and backpressure paths with the control plane's
# server, the read path's chains on every way a read goes (cooldown, probe,
# DMA errors, staging waits), the OSD finishers' fault paths (replica
# watchdog, map-change drop, session resets) with their free list, the op
# workers on every kind of item, the stream ingest's chunk tables past their
# first, BlueStore's txcs (TestTxcRecycled) and call records (TestTaskForms),
# the control plane's envelopes (TestNotify), the coalesced commit
# notifications' frames and the host's batch-entry table (TestNotifyFrames,
# TestBatchFrameDecodes), the client's requests (TestClientOp) and the OSD's
# mutations, replica applies and op replies, which the receiving messenger
# puts back once the reply is dispatched (TestOpRecordsRecycled,
# TestReplyZeroedAfterDispatch), each put back as its last reader is done and
# handed to the next caller — and, on the partitioned kernel, that none of
# them goes back to a free list of another partition (the scale-out line).
# CI's race step runs all eight lines.
test-race:
	go test -race ./...
	go test -race -count=10 -run 'TestGroup|TestShutdown|TestProcPanic|TestTask|TestChainServers|TestNowQueue|TestServe|TestWaitInPlace|TestSleeperParked|TestHandoff|TestQueued|TestDeadline|TestAwaitingProcCountsOnce|FuzzEventQueue' ./internal/sim
	go test -race -count=10 -run 'TestRecycled|TestReadReturnDMAError|TestShipmentPaths|TestBatchPaths|TestReadPaths|TestNotifyFrames|TestBatchFrameDecodes' ./internal/core
	go test -race -count=10 -run 'TestFaultPaths|TestMonitorFailureReport|TestOpWorkerPaths|TestStoreError|TestStreamChunks|TestOpRecordsRecycled' ./internal/osd
	go test -race -count=10 -run 'TestTxcRecycled|TestTaskForms' ./internal/bluestore
	go test -race -count=10 -run 'TestNotify' ./internal/rpcchan
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
