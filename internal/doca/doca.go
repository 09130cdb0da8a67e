// Package doca emulates the two NVIDIA DOCA facilities DoCeph builds on
// (paper §3.2):
//
//   - CommChannel: the negotiation API that exports host memory regions to
//     the DPU before DMA can target them. Negotiations cost a PCIe round
//     trip plus CPU on both sides, which is why DoCeph caches established
//     regions instead of renegotiating per transfer.
//   - Engine: the DMA engine moving data between DPU and host memory with
//     the documented ~2 MB per-transfer limit, a per-transfer setup cost,
//     completion by polling, and hooks for error injection (exercised by
//     DoCeph's fallback/cooldown machinery).
//
// Transfers carry real wire.Bufferlist payloads, so data integrity across
// the PCIe path is checked end-to-end by the tests.
package doca

import (
	"errors"
	"fmt"
	"slices"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Errors returned by the engine.
var (
	// ErrTooLarge rejects transfers above the hardware segment limit.
	ErrTooLarge = errors.New("doca: transfer exceeds max DMA size")
	// ErrTransferFailed marks an injected or simulated DMA failure.
	ErrTransferFailed = errors.New("doca: DMA transfer failed")
	// ErrNotExported rejects DMA against a region that was never
	// negotiated over the CommChannel.
	ErrNotExported = errors.New("doca: memory region not exported")
)

// MemRegion is a host- or DPU-side memory region that must be exported via
// CommChannel negotiation before the engine may target it.
type MemRegion struct {
	Name     string
	Bytes    int64
	exported bool
}

// NewMemRegion returns an unexported region.
func NewMemRegion(name string, bytes int64) *MemRegion {
	return &MemRegion{Name: name, Bytes: bytes}
}

// Exported reports whether the region has been negotiated.
func (r *MemRegion) Exported() bool { return r.exported }

// CommChannelConfig models the negotiation cost.
type CommChannelConfig struct {
	// RTT is the PCIe/driver round-trip of one negotiation.
	RTT sim.Duration
	// LocalCycles is charged on the negotiating (DPU) thread.
	LocalCycles int64
	// HostCycles is charged on the host thread that services the export.
	HostCycles int64
}

// DefaultCommChannelConfig returns negotiation defaults (~40 us RTT).
func DefaultCommChannelConfig() CommChannelConfig {
	return CommChannelConfig{RTT: 40 * sim.Microsecond, LocalCycles: 20_000, HostCycles: 20_000}
}

// CommChannel is the control channel used to export memory regions.
type CommChannel struct {
	env     *sim.Env
	cfg     CommChannelConfig
	dpuCPU  *sim.CPU
	hostCPU *sim.CPU
	hostTh  *sim.Thread

	// stall is extra per-negotiation latency injected by fault plans (a
	// congested or flapping control channel).
	stall        sim.Duration
	negotiations int64
}

// NewCommChannel binds a channel between the DPU CPU and a host CPU; host
// negotiation work is charged to hostTh.
func NewCommChannel(env *sim.Env, dpuCPU, hostCPU *sim.CPU, hostTh *sim.Thread,
	cfg CommChannelConfig) *CommChannel {
	if cfg.RTT == 0 {
		cfg = DefaultCommChannelConfig()
	}
	return &CommChannel{env: env, cfg: cfg, dpuCPU: dpuCPU, hostCPU: hostCPU, hostTh: hostTh}
}

// Negotiate exports region, blocking p (a DPU thread) for the negotiation
// round trip. Re-negotiating an exported region is permitted (and counted:
// the MR-cache ablation measures exactly this waste).
func (cc *CommChannel) Negotiate(p *sim.Proc, region *MemRegion) {
	cc.negotiations++
	cc.dpuCPU.ExecSelf(p, cc.cfg.LocalCycles)
	cc.hostCPU.Exec(p, cc.hostTh, cc.cfg.HostCycles)
	p.Wait(cc.cfg.RTT + cc.stall)
	region.exported = true
}

// SetStall injects extra latency into every negotiation round trip; zero
// clears the fault.
func (cc *CommChannel) SetStall(d sim.Duration) { cc.stall = d }

// Negotiations returns how many exports have been performed.
func (cc *CommChannel) Negotiations() int64 { return cc.negotiations }

// EngineConfig models the DMA hardware.
type EngineConfig struct {
	// MaxTransferBytes is the hardware per-transfer limit (~2 MB on
	// BlueField-3, [10] in the paper).
	MaxTransferBytes int64
	// BytesPerSec is the sustained DMA copy rate across PCIe.
	BytesPerSec float64
	// SetupTime is the engine-side overhead of the FIRST segment of a
	// request: CommChannel synchronization, descriptor setup and doorbell.
	// The paper's Table 3 implies this is on the order of milliseconds
	// (1 MB "DMA" time 2.8 ms at ~GB/s copy rates).
	SetupTime sim.Duration
	// ReuseSetupTime is the amortized per-segment overhead when the engine
	// executes consecutive segments of the same request against an already
	// established memory region (§3.3: "reusing pre-established memory
	// regions instead of performing CommChannel negotiation for each
	// transfer").
	ReuseSetupTime sim.Duration
	// JitterPct randomizes each transfer's execution time uniformly within
	// +-JitterPct/100 (seeded, deterministic per run). Real engines show
	// substantial service-time variance (PCIe arbitration, cache effects);
	// without it the two near-equal bottlenecks of the DoCeph write path
	// (engine and disk) lock into artificial lockstep. Negative disables
	// jitter entirely (exact-timing tests).
	JitterPct float64
	// Queues is the number of parallel DMA queues. BlueField-3 exposes
	// several; the paper's deployment behaves like one (its
	// serial-transfer analysis in §5.4), so 1 is the default. Requests
	// are pinned to queues by id, preserving per-request segment ordering
	// and the ReuseSetupTime amortization (queue-pair affinity).
	Queues int
}

// DefaultEngineConfig returns BlueField-3-like DMA parameters.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		MaxTransferBytes: 2 << 20,
		BytesPerSec:      635e6,
		SetupTime:        1600 * sim.Microsecond,
		ReuseSetupTime:   400 * sim.Microsecond,
		JitterPct:        25,
	}
}

func (c EngineConfig) withDefaults() EngineConfig {
	d := DefaultEngineConfig()
	if c.MaxTransferBytes == 0 {
		c.MaxTransferBytes = d.MaxTransferBytes
	}
	if c.BytesPerSec == 0 {
		c.BytesPerSec = d.BytesPerSec
	}
	if c.SetupTime == 0 {
		c.SetupTime = d.SetupTime
	}
	if c.ReuseSetupTime == 0 {
		c.ReuseSetupTime = d.ReuseSetupTime
	}
	if c.JitterPct == 0 {
		c.JitterPct = d.JitterPct
	}
	if c.Queues == 0 {
		c.Queues = 1
	}
	return c
}

// Transfer is one DMA work request. Timing fields let callers decompose
// latency exactly as the paper's Table 3 does: queue wait (StartedAt -
// SubmittedAt) versus copy time (CompletedAt - StartedAt).
type Transfer struct {
	ReqID     uint64
	Seg       int
	TotalSegs int
	Bytes     int64
	Data      *wire.Bufferlist
	Src, Dst  *MemRegion
	// Ops is the number of logical operations coalesced into this transfer
	// (batch frames); zero means one. Accounting only.
	Ops int
	// ReuseSetup marks a transfer whose memory regions and descriptors are
	// already established at submit time — batch frames moved out of the
	// pre-registered staging pool into the fixed host region (§3.3's
	// "reusing pre-established memory regions"). The engine charges
	// ReuseSetupTime instead of SetupTime when the queue's previous
	// transfer was also marked, extending the same amortization the
	// per-request segment path gets to consecutive batch frames.
	ReuseSetup bool
	// Queue pins the transfer to queue Queue-1 when positive (a slot
	// reserved earlier via ReserveQueue); zero steers by ReqID hash. Only
	// single-segment transfers may be pinned — multi-segment requests rely
	// on hash steering for their per-request queue-pair affinity.
	Queue int
	// Tag carries caller context to the completion poller.
	Tag interface{}
	// TraceCtx is the submitting operation's trace span context (raw
	// trace.SpanID). Instrumentation only; never serialized.
	TraceCtx uint64

	SubmittedAt sim.Time
	StartedAt   sim.Time
	CompletedAt sim.Time
	Err         error
	forceFail   bool

	// Done fires on completion (success or failure); the submitter waits
	// on it while the host side consumes the completion queue. It lives in
	// the Transfer, so a Transfer is submitted once and never copied after.
	Done sim.Event
}

// Wait returns the queueing delay the transfer experienced.
func (t *Transfer) Wait() sim.Duration { return t.StartedAt.Sub(t.SubmittedAt) }

// CopyTime returns the pure engine execution time.
func (t *Transfer) CopyTime() sim.Duration { return t.CompletedAt.Sub(t.StartedAt) }

// EngineStats counts engine activity.
type EngineStats struct {
	Transfers int64
	// OpsMoved counts logical operations carried: equal to Transfers
	// without batching, larger with it (OpsMoved/Transfers is the achieved
	// coalescing factor at the engine).
	OpsMoved  int64
	Bytes     int64
	Errors    int64
	TotalWait sim.Duration
	// Busy is the summed service time across all queues (setup + copy,
	// including shared-bus arbitration). Busy / (Queues * elapsed) is the
	// engine occupancy.
	Busy sim.Duration
}

// QueueStat is the per-queue slice of the engine counters, for occupancy
// and load-balance analysis of the multi-queue configuration.
type QueueStat struct {
	Transfers int64
	OpsMoved  int64
	Bytes     int64
	Errors    int64
	// Busy is the time this queue spent servicing transfers.
	Busy sim.Duration
	// MaxDepth is the high-water mark of queued + in-flight transfers.
	MaxDepth int
}

// Engine is one DMA engine with N independent queues (N=1: a serial
// executor, the paper's deployment). Each queue has per-request affinity —
// pending segments of the request the queue just served are executed first
// (hardware WQE batching per queue pair), which is what lets the
// ReuseSetupTime amortization take effect under concurrency. With several
// queues, setup/doorbell work overlaps freely while copy phases contend
// for copySlots shared PCIe bus slots. A single completion queue is
// consumed by the host's polling thread.
type Engine struct {
	env *sim.Env
	cfg EngineConfig

	queues      []*dmaQueue
	bus         *sim.Semaphore // nil with one queue
	completions *sim.Queue[*Transfer]

	// failNext makes the next n submitted transfers fail (error-injection
	// hook).
	failNext int
	// FailEvery injects a failure every n-th submission when > 0.
	FailEvery int64
	// failProb fails each submission with this probability (seeded via the
	// environment RNG; fault-plan hook).
	failProb  float64
	submitted int64

	stats EngineStats
}

type dmaQueue struct {
	pending []*Transfer
	cond    *sim.Cond
	depth   int // queued + in-flight
	// lastReuse records whether the previous transfer was a
	// ReuseSetup frame (descriptor/MR state still hot on this queue pair).
	lastReuse bool
	stats     QueueStat
}

const (
	// submitCycles is charged on the submitting (DPU) thread per transfer.
	submitCycles int64 = 6_000
	// copySlots bounds how many copy phases may occupy the PCIe path at
	// once when Queues > 1: descriptor setup and doorbells proceed
	// independently per queue, but the data movement itself shares link
	// bandwidth. Unused with one queue (the single executor already
	// serializes).
	copySlots = 2
)

// NewEngine creates an engine and spawns one execution process per queue.
func NewEngine(env *sim.Env, name string, cfg EngineConfig) *Engine {
	e := &Engine{
		env:         env,
		cfg:         cfg.withDefaults(),
		completions: sim.NewQueue[*Transfer](env),
	}
	if e.cfg.Queues > 1 {
		e.bus = sim.NewSemaphore(env, copySlots)
	}
	for i := 0; i < e.cfg.Queues; i++ {
		q := &dmaQueue{cond: sim.NewCond()}
		e.queues = append(e.queues, q)
		env.SpawnDaemon(fmt.Sprintf("dma-engine:%s/ch%d", name, i),
			func(p *sim.Proc) { e.run(p, q) })
	}
	return e
}

// NumQueues returns the number of parallel DMA queues.
func (e *Engine) NumQueues() int { return len(e.queues) }

// QueueFor returns the queue index a request id is pinned to. All segments
// of a request (and its commit notifications) ride the same queue.
func (e *Engine) QueueFor(reqID uint64) int { return int(reqID % uint64(len(e.queues))) }

// ReserveQueue picks the shallowest queue (join-shortest-queue; ties break
// to the lowest index, keeping the choice deterministic) and reserves a
// depth slot on it. The caller pins the eventual transfer with
// Transfer.Queue = idx+1; the reservation is released when that transfer
// completes or its Submit fails validation. JSQ steering is what keeps
// single-segment batch frames from queueing behind a busy queue while
// siblings sit idle — hash steering can't see instantaneous depth.
func (e *Engine) ReserveQueue() int {
	idx := 0
	for i := 1; i < len(e.queues); i++ {
		if e.queues[i].depth < e.queues[idx].depth {
			idx = i
		}
	}
	q := e.queues[idx]
	q.depth++
	if q.depth > q.stats.MaxDepth {
		q.stats.MaxDepth = q.depth
	}
	return idx
}

// QueueStats returns a copy of the per-queue counters.
func (e *Engine) QueueStats() []QueueStat {
	out := make([]QueueStat, len(e.queues))
	for i, q := range e.queues {
		out[i] = q.stats
	}
	return out
}

// Config returns the engine configuration (post-defaulting).
func (e *Engine) Config() EngineConfig { return e.cfg }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// FailNext makes the next n submitted transfers fail (test/fallback hook).
func (e *Engine) FailNext(n int) { e.failNext += n }

// SetFailProb makes each submitted transfer fail with probability prob;
// zero clears the fault.
func (e *Engine) SetFailProb(prob float64) { e.failProb = prob }

// Submit validates and enqueues t, charging the submit cost to p's thread
// on cpu. It returns immediately; wait on t.Done or consume Completions.
func (e *Engine) Submit(p *sim.Proc, cpu *sim.CPU, t *Transfer) error {
	if t.Bytes > e.cfg.MaxTransferBytes {
		e.unreserve(t)
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, t.Bytes, e.cfg.MaxTransferBytes)
	}
	if t.Src == nil || t.Dst == nil || !t.Src.Exported() || !t.Dst.Exported() {
		e.unreserve(t)
		return ErrNotExported
	}
	cpu.ExecSelf(p, submitCycles)
	t.SubmittedAt = p.Now()
	e.submitted++
	if e.failNext > 0 {
		e.failNext--
		t.forceFail = true
	} else if e.FailEvery > 0 && e.submitted%e.FailEvery == 0 {
		t.forceFail = true
	} else if e.failProb > 0 && e.env.Rand().Float64() < e.failProb {
		t.forceFail = true
	}
	var q *dmaQueue
	if t.Queue > 0 && t.Queue <= len(e.queues) {
		// Pinned: the depth slot was reserved by ReserveQueue.
		q = e.queues[t.Queue-1]
	} else {
		q = e.queues[e.QueueFor(t.ReqID)]
		q.depth++
		if q.depth > q.stats.MaxDepth {
			q.stats.MaxDepth = q.depth
		}
	}
	q.pending = append(q.pending, t)
	q.cond.Broadcast()
	return nil
}

// unreserve releases the depth slot of a pinned transfer whose Submit
// failed validation (the run loop never sees it).
func (e *Engine) unreserve(t *Transfer) {
	if t.Queue > 0 && t.Queue <= len(e.queues) {
		e.queues[t.Queue-1].depth--
	}
}

// next pops the queue's next transfer, preferring a pending segment of
// the request the queue last executed (queue-pair affinity).
func (q *dmaQueue) next(p *sim.Proc, lastReq uint64, haveLast bool) *Transfer {
	for len(q.pending) == 0 {
		q.cond.Wait(p)
	}
	idx := 0
	if haveLast {
		for i, t := range q.pending {
			if t.ReqID == lastReq {
				idx = i
				break
			}
		}
	}
	t := q.pending[idx]
	// Delete clears the vacated tail slot; left behind len it would keep a
	// finished transfer and its segment's Data reachable.
	q.pending = slices.Delete(q.pending, idx, idx+1)
	return t
}

// Completions is the queue the host-side polling thread consumes.
func (e *Engine) Completions() *sim.Queue[*Transfer] { return e.completions }

func (e *Engine) run(p *sim.Proc, q *dmaQueue) {
	var lastReq uint64
	var haveLast bool
	for {
		t := q.next(p, lastReq, haveLast)
		t.StartedAt = p.Now()
		fail := t.forceFail
		setup := e.cfg.SetupTime
		if haveLast && t.ReqID == lastReq && t.Seg > 0 {
			setup = e.cfg.ReuseSetupTime
		} else if t.ReuseSetup && q.lastReuse {
			setup = e.cfg.ReuseSetupTime
		}
		q.lastReuse = t.ReuseSetup
		lastReq, haveLast = t.ReqID, true
		copyTime := setup +
			sim.Duration(float64(t.Bytes)/e.cfg.BytesPerSec*float64(sim.Second))
		if e.cfg.JitterPct > 0 {
			f := 1 + e.cfg.JitterPct/100*(2*e.env.Rand().Float64()-1)
			setup = sim.Duration(float64(setup) * f)
			copyTime = sim.Duration(float64(copyTime) * f)
		}
		switch {
		case fail:
			// A failed transfer burns part of its slot before the engine
			// reports the error (the copy never reaches the bus).
			p.Wait(copyTime / 2)
			t.Err = ErrTransferFailed
			e.stats.Errors++
			q.stats.Errors++
		case e.bus == nil:
			// Single queue: the executor itself serializes, no bus
			// arbitration needed.
			p.Wait(copyTime)
			e.noteSuccess(q, t)
		default:
			// Descriptor setup and doorbell proceed per queue; the data
			// movement contends for the shared PCIe bus slots.
			p.Wait(setup)
			e.bus.Acquire(p, 1)
			p.Wait(copyTime - setup)
			e.bus.Release(1)
			e.noteSuccess(q, t)
		}
		t.CompletedAt = p.Now()
		q.depth--
		e.stats.TotalWait += t.Wait()
		e.stats.Busy += t.CopyTime()
		q.stats.Busy += t.CopyTime()
		e.completions.Push(t)
		t.Done.Fire()
	}
}

func (e *Engine) noteSuccess(q *dmaQueue, t *Transfer) {
	ops := int64(1)
	if t.Ops > 1 {
		ops = int64(t.Ops)
	}
	e.stats.Transfers++
	e.stats.Bytes += t.Bytes
	e.stats.OpsMoved += ops
	q.stats.Transfers++
	q.stats.Bytes += t.Bytes
	q.stats.OpsMoved += ops
}
