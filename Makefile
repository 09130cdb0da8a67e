# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test test-race race smoke bench bench-smoke cover loc knobs microbench results quick vet fmt trace

all: build vet test test-race smoke bench-smoke cover knobs

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
# kernel and a proc, tasks run inline by whichever of them holds control, and
# Group workers resuming the same partition's procs — and draining its
# now-queue, which the barrier filled — from different goroutines in
# successive windows (repeated, since which worker picks up which partition
# varies from run to run).
test-race:
	go test -race ./...
	go test -race -count=10 -run 'TestGroup|TestShutdown|TestProcPanic|TestTask|TestNowQueue|TestServe' ./internal/sim

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

# Simulator throughput harness: runs the sweep (doceph.RunSimSweep, 13 rows
# one at a time, ~3 s) and writes events/sec, ns/op and allocs/op to
# BENCH_sim.json (compared against the recorded pre-optimization baseline).
# `-rebaseline` resets the baseline.
bench:
	go run ./cmd/simbench

# The same sweep wired into `all`, compared against the BENCH_sim.json record
# instead of written to it: fails if a row's ops or events differ from the
# record (the simulation moved), if a row exists on one side only, or if
# events/sec collapses or allocs/op grows past 1.10x, in aggregate or in any
# row. This is the guard that keeps the tracing hooks free when tracing is
# off.
bench-smoke:
	go run ./cmd/simbench -guard BENCH_sim.json

# Per-package statement-coverage floors for the offload-critical packages
# (core, doca, osd, messenger, sim, perf); see scripts/covergate.sh for
# the recorded floors.
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
