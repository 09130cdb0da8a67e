// Package osd implements the Object Storage Daemon: the request pipeline of
// Figure 2 in the paper. Client ops arrive via the messenger (steps 1-2),
// are queued to the op work queue (3), picked up by tp_osd_tp worker threads
// (4), applied to the backing ObjectStore (5), replicated to secondary OSDs
// through the messenger (6-8), and acknowledged to the client once the local
// commit and every replica ack have landed (9), preserving Ceph's
// write-through semantics.
//
// The same OSD code runs in both deployments the paper compares: on the
// host CPU with a local BlueStore (Baseline) and on the DPU's ARM cores with
// a ProxyObjectStore backend (DoCeph) — the store is just the pluggable
// objstore.Store interface.
package osd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// ThreadCat is the accounting category for OSD worker threads, matching the
// paper's "tp_osd_tp" perf pattern.
const ThreadCat = "tp_osd_tp"

// Config carries OSD tunables and the op-path CPU cost model.
type Config struct {
	// OpWorkers is the tp_osd_tp worker-pool size.
	OpWorkers int
	// OpShards is the number of op-queue shards (Ceph's osd_op_num_shards):
	// PGs hash to shards, each shard is one FIFO queue, and the worker pool
	// is divided among them — so ops of one PG stay strictly ordered within
	// their shard while independent PGs dispatch in parallel. Default 1
	// keeps the single shared queue; clamped to OpWorkers.
	OpShards int
	// OpPrepCycles is charged per client op (decode context, PG mapping,
	// op tracking).
	OpPrepCycles int64
	// RepPrepCycles is charged per generated replication sub-op.
	RepPrepCycles int64
	// FinishCycles is charged per completed op (commit callbacks, reply
	// construction).
	FinishCycles int64
	// HeartbeatInterval spaces peer pings; zero disables heartbeats.
	HeartbeatInterval sim.Duration
	// Monitor is the entity name failures are reported to ("" disables
	// reporting).
	Monitor string
	// DisableRecovery turns off backfill on map changes.
	DisableRecovery bool
	// RecoveryDelay throttles backfill between objects so recovery does
	// not starve client I/O.
	RecoveryDelay sim.Duration
	// RecoveryMaxPGs caps how many PGs this OSD backfills concurrently
	// (Ceph's osd_max_backfills reservation). Zero removes the cap (legacy
	// behaviour: every eligible PG starts at once).
	RecoveryMaxPGs int
	// RecoveryBps token-bucket-paces pushed payload bytes per second across
	// all of this OSD's backfills (Ceph's osd_recovery_max_active byte
	// analogue). Zero disables pacing.
	RecoveryBps float64
	// RecoveryBackoffDepth is the foreground op-queue watermark: while the
	// OSD's op queues hold at least this many waiting client ops, backfill
	// pauses in recoveryBackoffStep steps. Zero disables the backoff.
	RecoveryBackoffDepth int
	// ScrubInterval spaces periodic deep scrubs; zero disables scrubbing.
	ScrubInterval sim.Duration
}

// DefaultConfig returns the OSD defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		OpWorkers:         8,
		OpPrepCycles:      300_000,
		RepPrepCycles:     150_000,
		FinishCycles:      200_000,
		HeartbeatInterval: sim.Second,
		RecoveryDelay:     2 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.OpWorkers == 0 {
		c.OpWorkers = d.OpWorkers
	}
	if c.OpShards == 0 {
		c.OpShards = 1
	}
	if c.OpShards > c.OpWorkers {
		c.OpShards = c.OpWorkers
	}
	if c.OpPrepCycles == 0 {
		c.OpPrepCycles = d.OpPrepCycles
	}
	if c.RepPrepCycles == 0 {
		c.RepPrepCycles = d.RepPrepCycles
	}
	if c.FinishCycles == 0 {
		c.FinishCycles = d.FinishCycles
	}
	if c.RecoveryDelay == 0 {
		c.RecoveryDelay = d.RecoveryDelay
	}
	return c
}

// Stats counts per-OSD activity.
type Stats struct {
	ClientWrites     int64
	ClientReads      int64
	ClientStats      int64
	ClientDeletes    int64
	RepOpsServed     int64
	RepRetries       int64
	RepAborts        int64
	WrongPrimary     int64
	ObjectsRecovered int64
	PushesServed     int64
	ObjectsScrubbed  int64
	ScrubsServed     int64
	ScrubErrors      int64
	ScrubRepairs     int64
	BytesWritten     int64
	BytesRead        int64
	FailureReports   int64
	// DegradedWrites counts mutations accepted while the PG's acting set was
	// below the replication factor but at or above min_size.
	DegradedWrites int64
	// NoQuorumRejects counts mutations bounced with ResNoQuorum because the
	// acting set fell below min_size.
	NoQuorumRejects int64
	// DegradedPGsHealed counts PGs whose degraded-write ledger entry was
	// retired when a map change restored the full acting set.
	DegradedPGsHealed int64
	// PGsBackfilled counts backfill reservations this OSD ran as pusher.
	PGsBackfilled int64
	// RecoveryBytes is the payload volume pushed to backfill targets.
	RecoveryBytes int64
	// RecoveryThrottle is virtual time backfill spent blocked in the
	// RecoveryBps token bucket.
	RecoveryThrottle sim.Duration
	// RecoveryBackoffs counts watermark pauses taken because foreground op
	// queues were at or above RecoveryBackoffDepth.
	RecoveryBackoffs int64
	// BalancedReads counts balance-flagged reads this OSD served as a
	// non-primary acting-set member.
	BalancedReads int64
	// StreamWrites counts client writes ingested via the streaming data
	// plane (chunk-pipelined) rather than as one reassembled MOSDOp.
	StreamWrites int64
}

// OSD is one object storage daemon instance.
type OSD struct {
	env  *sim.Env
	cpu  *sim.CPU
	cfg  Config
	id   int32
	name string
	// pools are the partition's free lists of the op path's records.
	pools *pools
	// ingestBody is ingestStream as a func value, made with streams at the
	// first stream: every stream's ingest proc shares it and finds its record
	// in streams under its proc id.
	ingestBody func(*sim.Proc)
	// nextRec numbers the finishers; mutations and repApplies count the
	// client mutations (streamed ones aside) and the sub-ops not yet answered.
	nextRec    uint64
	mutations  int
	repApplies int
	streams    map[uint64]*streamIngest
	msgr       *messenger.Messenger
	store      objstore.Store

	curMap *osdmap.Map
	// opqs are the op-queue shards (one with OpShards=1, the seed shape);
	// dispatch routes by PG so per-PG ordering holds within a shard.
	opqs    []*sim.Queue[opItem]
	pgLocks map[uint32]*sim.Semaphore
	created map[uint32]bool
	// degraded ledgers writes accepted below full replication, per PG, so
	// operators can see which PGs owe backfill work. Entries are retired by
	// applyMap once the acting set is whole again (the existing push path
	// re-replicates the objects). Only populated when the map's MinSize gate
	// is active.
	degraded map[uint32]int64
	// recovSem is the backfill reservation semaphore (nil without
	// RecoveryMaxPGs). recovTokens/recovLast are the RecoveryBps token
	// bucket — shared across this OSD's concurrent backfills so the cap is
	// per OSD, not per PG.
	recovSem    *sim.Semaphore
	recovTokens float64
	recovLast   sim.Time

	nextTid uint64
	// pending records each outstanding rep-op: which replica it waits on
	// (so a map change that removes that replica can complete the wait —
	// Ceph re-peers; we continue degraded rather than hang the client) and
	// the message itself (so the watchdog can resend it verbatim).
	pending      map[uint64]*repWait
	nextPushTid  uint64
	pushPending  map[uint64]*sim.Event
	scrubPending map[uint64]*scrubCall
	thFin        *sim.Thread
	lastSeen     map[int32]sim.Time
	reported     map[int32]bool

	// ready gates op processing until PG collections are instantiated.
	ready  *sim.Event
	failed bool
	stats  Stats
	// pgOps counts client ops served per PG (including balanced reads),
	// the raw material for the scale-out load-imbalance metrics. Pure
	// bookkeeping: it adds no events and never alters simulated timing.
	pgOps map[uint32]int64
	tr    *trace.Tracer
}

type opItem struct {
	src string
	msg cephmsg.Message
	// span/enq carry the op's trace stage across the op queue (zero when
	// tracing is off or the message has no context).
	span trace.SpanID
	enq  sim.Time
}

// pendingRep is a mutation's replica-ack barrier: ev fires once needed acks
// have landed (or been abandoned). failed is set by an ack of a replica whose
// commit failed, which fails the write; a delete the replica found nothing to
// do for leaves it unset. stray is set once a sub-op was resent or its ack
// abandoned: a replica may then read the sub-op after the client is answered.
type pendingRep struct {
	needed int
	ev     sim.Event
	failed bool
	stray  bool
}

// repWait is one outstanding replica acknowledgment. msg is the sub-op sent
// to target, which the watchdog sends again on a timeout unless it opened a
// chunk stream (stream), which cannot be replayed verbatim.
type repWait struct {
	target int32
	stream bool
	msg    cephmsg.MRepOp
	pend   *pendingRep
}

// mutation is one client mutation on its primary, whole or streamed: the
// store transaction and its op slot, the ack barrier, the first secondary's
// repWait and the tid table, in one record. A further secondary costs one
// repWait of its own. A whole one comes from the partition's pools and its
// finisher puts it back once the client is answered (retire); a streamed one
// is left to the GC.
type mutation struct {
	src                 string
	m                   *cephmsg.MOSDOp
	sp, commitSp, repSp trace.SpanID
	res                 objstore.Result
	txn                 objstore.Transaction
	ops                 [1]objstore.Op
	pend                pendingRep
	rep                 repWait
	tids                []uint64
	tidSlot             [1]uint64
}

// newMutation makes the zero record mu that of client op m, whose reply waits
// for the acks of that many secondaries (for none, the barrier is already
// passed), and returns it.
func newMutation(mu *mutation, src string, m *cephmsg.MOSDOp, sp trace.SpanID, secondaries int) *mutation {
	mu.src, mu.m, mu.sp = src, m, sp
	mu.txn.Ops = mu.ops[:0]
	mu.tids = mu.tidSlot[:0]
	mu.pend.needed = secondaries
	if secondaries <= 0 {
		mu.pend.ev.Fire()
	}
	return mu
}

// retire puts whole mutation mu back once its client is answered: every
// replica has acked, so nothing reads the sub-op inside it. One whose sub-op
// was resent or whose ack was abandoned (stray; every round of the replicas'
// wait that timed out did one or the other, and left a spent wake-up on the
// barrier's event) is left to the GC, since the replica may still read the
// sub-op; so is a failed OSD's (see lend).
func (o *OSD) retire(mu *mutation) {
	if !mu.pend.stray && !o.failed {
		o.pools.muts.Put(mu)
	}
}

// repApply is one sub-op on a replica: its store transaction and op slot and
// the ack, in one record from the partition's pools of its OSD o, put back by
// the primary's messenger once the ack is dispatched.
type repApply struct {
	o            *OSD
	src          string
	m            *cephmsg.MRepOp
	sp, commitSp trace.SpanID
	res          objstore.Result
	txn          objstore.Transaction
	ops          [1]objstore.Op
	reply        cephmsg.MRepOpReply
}

// Release puts ra back once the primary's messenger has dispatched its ack.
func (ra *repApply) Release() { ra.o.pools.applies.Put(ra) }

// opReply is the reply to a client op, in a record from the partition's pools
// of its OSD o, put back by the client's messenger once dispatched.
type opReply struct {
	o     *OSD
	reply cephmsg.MOSDOpReply
}

// Release puts r back once the client's messenger has dispatched it.
func (r *opReply) Release() { r.o.pools.replies.Put(r) }

// lend is owner, the record a reply is sent from, unless the OSD has failed:
// a crashed daemon's records are not handed to the ops that come after it.
func (o *OSD) lend(owner cephmsg.Owner) cephmsg.Owner {
	if o.failed {
		return nil
	}
	return owner
}

// osdNames caches entity names for the small OSD ids every realistic
// cluster uses, keeping Name (called per message send) allocation-free.
var osdNames = func() [256]string {
	var a [256]string
	for i := range a {
		a[i] = fmt.Sprintf("osd.%d", i)
	}
	return a
}()

// Name returns the OSD's entity name, "osd.<id>".
func Name(id int32) string {
	if id >= 0 && int(id) < len(osdNames) {
		return osdNames[id]
	}
	return fmt.Sprintf("osd.%d", id)
}

// New creates an OSD with the given identity, messenger and backing store,
// spawns its heartbeat loop and the PG creation that opens its tp_osd_tp
// workers' shards, and installs its dispatcher on msgr.
func New(env *sim.Env, cpu *sim.CPU, id int32, msgr *messenger.Messenger,
	store objstore.Store, m *osdmap.Map, cfg Config) *OSD {
	o := &OSD{
		env: env, cpu: cpu, cfg: cfg.withDefaults(), id: id, name: Name(id),
		msgr: msgr, store: store, curMap: m,
		pgLocks:      make(map[uint32]*sim.Semaphore),
		created:      make(map[uint32]bool),
		degraded:     make(map[uint32]int64),
		pending:      make(map[uint64]*repWait),
		pushPending:  make(map[uint64]*sim.Event),
		scrubPending: make(map[uint64]*scrubCall),
		thFin:        sim.NewThread(fmt.Sprintf("fn_osd-%d", id), ThreadCat),
		lastSeen:     make(map[int32]sim.Time),
		reported:     make(map[int32]bool),
		pgOps:        make(map[uint32]int64),
	}
	o.pools = sim.Local[pools](env)
	if o.cfg.RecoveryMaxPGs > 0 {
		o.recovSem = sim.NewSemaphore(env, o.cfg.RecoveryMaxPGs)
	}
	o.ready = sim.NewEvent()
	msgr.SetDispatcher(o.dispatch)
	msgr.SetStreamSink(o)
	o.opqs = make([]*sim.Queue[opItem], o.cfg.OpShards)
	for i := range o.opqs {
		o.opqs[i] = sim.NewQueue[opItem](env)
	}
	if o.cfg.HeartbeatInterval > 0 {
		env.SpawnDaemon("hb@"+o.name, func(p *sim.Proc) { o.heartbeatLoop(p) })
	}
	if o.cfg.ScrubInterval > 0 {
		env.SpawnDaemon("scrub@"+o.name, func(p *sim.Proc) { o.scrubLoop(p) })
	}
	env.Spawn("pg-init@"+o.name, func(p *sim.Proc) { o.createPGs(p) })
	return o
}

// createPGs instantiates the collections of every PG this OSD serves, as
// Ceph does during PG creation/peering before accepting I/O. ensureColl
// remains as the lazy path for PGs acquired later through map changes.
func (o *OSD) createPGs(p *sim.Proc) {
	p.SetThread(o.thFin)
	txn := &objstore.Transaction{}
	for pg := uint32(0); pg < o.curMap.PGCount; pg++ {
		for _, id := range o.curMap.ActingSet(pg) {
			if id == o.id {
				txn.MkColl(pgColl(pg))
				o.created[pg] = true
				break
			}
		}
	}
	if len(txn.Ops) > 0 {
		res := o.store.QueueTransaction(p, txn)
		res.Done.Wait(p)
		if res.Err != nil {
			panic(fmt.Sprintf("osd %s: PG collection init failed: %v", o.name, res.Err))
		}
	}
	// The tp_osd_tp workers open their shards here, in index order: registered
	// in New they would take the ops that came early in arrival order instead.
	for i := 0; i < o.cfg.OpWorkers; i++ {
		w := &worker{o: o, th: sim.NewThread(fmt.Sprintf("tp_osd_tp-%d@%s", i, o.name), ThreadCat)}
		w.done = o.opqs[i%len(o.opqs)].ServeTask(w.th.Name, w.serve)
	}
	o.ready.Fire()
}

// ID returns the OSD id.
func (o *OSD) ID() int32 { return o.id }

// Fail simulates a daemon crash: all subsequent inbound traffic is dropped
// and heartbeats stop, so peers detect the silence and report it.
func (o *OSD) Fail() { o.failed = true }

// Recover restarts a failed daemon (its store content is intact, as after a
// process restart); peers re-integrate it once the monitor marks it up and
// backfill refreshes anything it missed. The heartbeat ledger is reset: a
// freshly started daemon has no grounds to report peers it has not heard
// from yet.
func (o *OSD) Recover() {
	o.failed = false
	o.lastSeen = make(map[int32]sim.Time)
	o.reported = make(map[int32]bool)
	// Announce the restart (Ceph's MOSDBoot): the daemon may have been
	// marked down while it was dead — it missed that broadcast — and the
	// monitor will not learn it is back any other way.
	if o.cfg.Monitor != "" {
		o.msgr.Send(o.cfg.Monitor, &cephmsg.MOSDBoot{OSD: o.id, Epoch: o.curMap.Epoch})
	}
}

// Failed reports whether Fail was called.
func (o *OSD) Failed() bool { return o.failed }

// SetTracer enables op-path tracing on this OSD (nil disables).
func (o *OSD) SetTracer(tr *trace.Tracer) { o.tr = tr }

// Stats returns a copy of the activity counters.
func (o *OSD) Stats() Stats { return o.stats }

// PGOps returns a copy of the per-PG served-op counters (client ops this
// OSD actually executed, balanced reads included; bounced ops are not).
func (o *OSD) PGOps() map[uint32]int64 {
	out := make(map[uint32]int64, len(o.pgOps))
	for pg, n := range o.pgOps {
		out[pg] = n
	}
	return out
}

// QueueDepth returns the ops currently waiting in the op-queue shards — a
// point-in-time backlog sample for queue-depth imbalance metrics.
func (o *OSD) QueueDepth() int {
	n := 0
	for _, q := range o.opqs {
		n += q.Len()
	}
	return n
}

// InFlight returns how many client mutations (streamed ones aside) and
// sub-ops this OSD has yet to answer, and how many replica acks it waits on:
// all zero once the cluster is quiescent.
func (o *OSD) InFlight() (mutations, repApplies, repWaits int) {
	return o.mutations, o.repApplies, len(o.pending)
}

// Quiescent reports, joined, every way the OSD is not at rest: a client
// mutation, sub-op or replica wait still in flight (InFlight), or a record of
// the partition's free lists not back — a finisher, a worker's turn, a
// mutation, a sub-op's repApply or a client op's reply.
func (o *OSD) Quiescent() error {
	var errs []error
	if mu, ra, w := o.InFlight(); mu+ra+w != 0 {
		errs = append(errs, fmt.Errorf("%s: %d mutations, %d replica applies and %d replica waits in flight", o.name, mu, ra, w))
	}
	errs = append(errs, o.pools.fins.AllBack(o.name+": finishers"), o.pools.turns.AllBack(o.name+": worker turns"),
		o.pools.muts.AllBack(o.name+": mutations"), o.pools.applies.AllBack(o.name+": replica applies"),
		o.pools.replies.AllBack(o.name+": op replies"))
	return errors.Join(errs...)
}

// Map returns the OSD's current cluster map.
func (o *OSD) Map() *osdmap.Map { return o.curMap }

// dispatch runs on msgr-worker threads: heavy ops go to the op queue, light
// control traffic is handled inline (Ceph's fast dispatch). It never blocks.
func (o *OSD) dispatch(_ *sim.Proc, src string, m cephmsg.Message) {
	if o.failed {
		return // a crashed daemon: frames arrive at a dead socket
	}
	switch msg := m.(type) {
	case *cephmsg.MOSDOp, *cephmsg.MRepOp, *cephmsg.MPGPush, *cephmsg.MScrub:
		it := opItem{src: src, msg: m}
		if o.tr.Enabled() {
			if ctx := cephmsg.TraceContext(m); ctx != 0 {
				// The OSD stage span opens at enqueue so op-queue wait is
				// part of its latency (attributed via AddQueueWait at pop).
				switch mm := m.(type) {
				case *cephmsg.MOSDOp:
					it.span = o.tr.Start(trace.SpanID(ctx), 0, trace.StageOSDOp, mm.Object)
				case *cephmsg.MRepOp:
					it.span = o.tr.Start(trace.SpanID(ctx), 0, trace.StageRepOp, mm.Object)
				}
				it.enq = o.env.Now()
			}
		}
		o.opqs[o.opShard(m)].Push(it)
	case *cephmsg.MPGPushAck:
		o.handlePGPushAck(msg)
	case *cephmsg.MScrubReply:
		o.handleScrubReply(msg)
	case *cephmsg.MRepOpReply:
		if w := o.pending[msg.Tid]; msg.Result == cephmsg.ResError && w != nil {
			w.pend.failed = true // the replica's commit failed: so does the write
		}
		o.completeRep(msg.Tid)
	case *cephmsg.MPing:
		o.msgr.Send(src, &cephmsg.MPingReply{Src: o.name, Stamp: msg.Stamp})
	case *cephmsg.MGetStats:
		o.msgr.Send(src, o.statsReply(msg.Tid))
	case *cephmsg.MPingReply:
		if id, ok := parseOSD(src); ok {
			o.lastSeen[id] = o.env.Now()
		}
	case *cephmsg.MOSDMap:
		o.applyMap(o.env.Now(), msg)
	}
}

// opShard maps a heavy op to its queue shard by PG, so every op of a PG
// rides the same FIFO shard (Ceph's osd_op_num_shards hashing).
func (o *OSD) opShard(m cephmsg.Message) int {
	if len(o.opqs) == 1 {
		return 0
	}
	var pg uint32
	switch mm := m.(type) {
	case *cephmsg.MOSDOp:
		pg = o.curMap.PGForObject(mm.Object)
	case *cephmsg.MRepOp:
		pg = mm.PGID
	case *cephmsg.MPGPush:
		pg = mm.PGID
	case *cephmsg.MScrub:
		pg = mm.PGID
	}
	return int(pg % uint32(len(o.opqs)))
}

// completeRep counts one replica acknowledgment (or abandonment). The tid
// is retired immediately so a late reply from a falsely-reported replica
// cannot be counted twice.
func (o *OSD) completeRep(tid uint64) {
	w, ok := o.pending[tid]
	if !ok {
		return
	}
	delete(o.pending, tid)
	w.pend.needed--
	if w.pend.needed <= 0 {
		w.pend.ev.Fire()
	}
}

// abandonRep completes the wait for tid's ack without it: the replica may
// still read the sub-op, so its mutation is left to the GC.
func (o *OSD) abandonRep(tid uint64) {
	if w, ok := o.pending[tid]; ok {
		w.pend.stray = true
		o.completeRep(tid)
	}
}

// registerRep makes sec's copy of mu's sub-op sub: it charges the sub-op's
// prep, stamps the copy with a fresh tid and the epoch it leaves under (the
// charge took time), and records the ack to wait for. The first secondary's
// copy lives in mu itself. stream marks the open frame of a chunk stream,
// which the watchdog does not resend (see awaitReplicas).
func (o *OSD) registerRep(p *sim.Proc, mu *mutation, sec int32, sub cephmsg.MRepOp, stream bool) *cephmsg.MRepOp {
	o.tr.AddCPU(mu.repSp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.RepPrepCycles))
	return o.stampRep(mu, sec, sub, stream)
}

// stampRep is registerRep once the sub-op's prep is paid.
func (o *OSD) stampRep(mu *mutation, sec int32, sub cephmsg.MRepOp, stream bool) *cephmsg.MRepOp {
	o.nextTid++
	sub.Tid, sub.Epoch = o.nextTid, o.curMap.Epoch
	w := &mu.rep
	if len(mu.tids) > 0 {
		w = new(repWait)
	}
	*w = repWait{target: sec, stream: stream, msg: sub, pend: &mu.pend}
	o.pending[sub.Tid] = w
	mu.tids = append(mu.tids, sub.Tid)
	return &w.msg
}

// subOp is the replicas' copy of client mutation m, before registerRep makes
// and stamps each secondary's. It carries exactly the fields m's kind uses:
// PayloadBytes() is what the wire model charges. A streamed write's payload
// travels as chunks, so its m.Data is nil here as well.
func subOp(m *cephmsg.MOSDOp, pg uint32, repSp trace.SpanID) cephmsg.MRepOp {
	sub := cephmsg.MRepOp{PGID: pg, Object: m.Object, Op: m.Op, TraceCtx: uint64(repSp)}
	if m.Op == cephmsg.OpWrite {
		sub.Offset, sub.Data = m.Offset, m.Data
	}
	return sub
}

const (
	// repOpTimeout bounds how long the primary waits for replica acks
	// before resending the outstanding MRepOps.
	repOpTimeout = 15 * sim.Second
	// maxRepRetries bounds resends; past it the write aborts with a typed
	// error to the client rather than hanging.
	maxRepRetries = 3
)

// awaitReplicas blocks p until every replica ack of mu has landed (or been
// abandoned by a map change), in rounds of repOpTimeout with repTimedOut
// between them. It reports false if the op aborted.
func (o *OSD) awaitReplicas(p *sim.Proc, mu *mutation) bool {
	for try := 0; ; try++ {
		if mu.pend.ev.WaitTimeout(p, repOpTimeout) {
			return true
		}
		if !o.repTimedOut(mu, try) {
			return false
		}
	}
}

// repTimedOut is what a wait for mu's replica acks does when its round try
// (from 0) passes repOpTimeout without them: resend the still-outstanding
// sub-ops — idempotent under their stable tids — and report true to wait
// another round, or, after maxRepRetries rounds, abort the op cleanly (report
// false) instead of hanging the client.
func (o *OSD) repTimedOut(mu *mutation, try int) bool {
	if try >= maxRepRetries {
		o.stats.RepAborts++
		for _, tid := range mu.tids {
			o.abandonRep(tid)
		}
		return false
	}
	o.stats.RepRetries++
	for _, tid := range mu.tids {
		w, ok := o.pending[tid]
		if !ok {
			continue
		}
		if !o.curMap.IsUp(w.target) {
			// The map already dropped this replica but the abandon path
			// raced with us; finish the wait degraded.
			o.abandonRep(tid)
			continue
		}
		if w.stream {
			// Streamed rep-op: the chunk stream cannot be replayed
			// verbatim, so timeout rounds only bound the wait.
			continue
		}
		w.pend.stray = true
		o.msgr.Send(Name(w.target), &w.msg)
	}
	return true
}

func (o *OSD) pgLock(pg uint32) *sim.Semaphore {
	l, ok := o.pgLocks[pg]
	if !ok {
		l = sim.NewSemaphore(o.env, 1)
		o.pgLocks[pg] = l
	}
	return l
}

// pgCollNames caches collection names for the PG counts in realistic use;
// pgColl sits on every I/O hot path (lock, transaction, replica txn).
var pgCollNames = func() [1024]string {
	var a [1024]string
	for i := range a {
		a[i] = fmt.Sprintf("pg.%d", i)
	}
	return a
}()

func pgColl(pg uint32) string {
	if pg < uint32(len(pgCollNames)) {
		return pgCollNames[pg]
	}
	return fmt.Sprintf("pg.%d", pg)
}

// ensureColl lazily creates a PG's collection in the backing store within
// the caller's transaction.
func (o *OSD) ensureColl(pg uint32, txn *objstore.Transaction) {
	if !o.created[pg] {
		// Prepend so the collection exists before the first write applies.
		withColl := (&objstore.Transaction{}).MkColl(pgColl(pg))
		withColl.Ops = append(withColl.Ops, txn.Ops...)
		txn.Ops = withColl.Ops
		o.created[pg] = true
	}
}

// admit is the gate every client op passes, whole or streamed. It returns
// the result to bounce the op with, or ResOK with the op counted against its
// PG and — a mutation below full replication — ledgered as a degraded write.
func (o *OSD) admit(m *cephmsg.MOSDOp) (pg uint32, acting []int32, res int32) {
	pg = o.curMap.PGForObject(m.Object)
	acting = o.curMap.ActingSet(pg)
	if len(acting) == 0 || acting[0] != o.id {
		// Balance-flagged reads may be served by any acting-set member
		// (Ceph's CEPH_OSD_FLAG_BALANCE_READS); everything else — and any
		// read we are not acting for — bounces back to the primary.
		if m.Op != cephmsg.OpRead || m.Flags&cephmsg.FlagBalanceReads == 0 ||
			!slices.Contains(acting, o.id) {
			o.stats.WrongPrimary++
			return pg, acting, cephmsg.ResNotPrimary
		}
		o.stats.BalancedReads++
	} else if ms := o.curMap.MinSize; ms > 0 && mutates(m.Op) {
		// min_size write-quorum gate (off when MinSize is zero): mutations need
		// at least MinSize acting members; between MinSize and Replicas they
		// proceed degraded and the PG is ledgered for later healing.
		if len(acting) < ms {
			o.stats.NoQuorumRejects++
			return pg, acting, cephmsg.ResNoQuorum
		}
		if len(acting) < o.curMap.Replicas {
			o.stats.DegradedWrites++
			o.degraded[pg]++
		}
	}
	o.pgOps[pg]++
	return pg, acting, cephmsg.ResOK
}

// reject answers an op that will not run and closes its span.
func (o *OSD) reject(src string, m *cephmsg.MOSDOp, sp trace.SpanID, res int32) {
	r := o.newReply(m)
	r.reply.Result = res
	o.sendReply(src, r)
	o.tr.Finish(sp)
}

// mutates reports whether a client op alters replicated state and is
// therefore subject to the min_size write-quorum gate.
func mutates(op cephmsg.Op) bool {
	return op == cephmsg.OpWrite || op == cephmsg.OpDelete
}

// mutationTxn fills txn with the store ops of one replicated mutation: the
// primary's from the client's op, a replica's from the sub-op it was sent, so
// every acting store applies the same thing.
func mutationTxn(txn *objstore.Transaction, coll string, op cephmsg.Op, object string,
	off uint64, data *wire.Bufferlist) {
	if op == cephmsg.OpDelete {
		txn.Remove(coll, object)
		return
	}
	txn.Write(coll, object, off, data)
}

// completeMutation is the tail of a streamed client mutation, at the end of
// its ingest proc, once the local commit is durable (commitErr: it failed):
// wait out the replicas, charge the finish, answer the client. A whole one's
// finisher runs the same steps as a chain.
func (o *OSD) completeMutation(p *sim.Proc, mu *mutation, commitErr bool) {
	repOK := o.awaitReplicas(p, mu)
	o.tr.Finish(mu.repSp)
	o.tr.AddCPU(mu.sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.FinishCycles))
	o.replyMutation(mu, commitErr, repOK)
}

// replyMutation answers the client of mu once its finish is paid: an error if
// the local commit failed (commitErr; a delete that found nothing), a
// replica's did or the replicas aborted (!repOK).
func (o *OSD) replyMutation(mu *mutation, commitErr, repOK bool) {
	m := mu.m
	r := o.newReply(m)
	switch {
	case commitErr && m.Op == cephmsg.OpDelete:
		r.reply.Result = cephmsg.ResNotFound
	case commitErr || !repOK || mu.pend.failed:
		r.reply.Result = cephmsg.ResError
	}
	if m.Op == cephmsg.OpWrite {
		r.reply.Version = uint64(o.env.Now())
	}
	o.sendReply(mu.src, r)
	o.tr.Finish(mu.sp)
}

// newReply is the reply to client op m, on a record from the partition's
// pools.
func (o *OSD) newReply(m *cephmsg.MOSDOp) *opReply {
	r := o.pools.replies.Get()
	r.o = o
	r.reply = cephmsg.MOSDOpReply{Tid: m.Tid, Object: m.Object, Op: m.Op, TraceCtx: m.TraceCtx}
	return r
}

// sendReply sends r's reply to dst, whose messenger puts r back.
func (o *OSD) sendReply(dst string, r *opReply) {
	r.reply.Owner = o.lend(r)
	o.msgr.Send(dst, &r.reply)
}

// heartbeatGrace is the silence threshold after which a peer is reported
// to the monitor.
const heartbeatGrace = 5 * sim.Second

// heartbeatLoop pings peer OSDs and reports prolonged silence to the
// monitor.
func (o *OSD) heartbeatLoop(p *sim.Proc) {
	th := sim.NewThread("osd_hb@"+o.name, ThreadCat)
	p.SetThread(th)
	for {
		p.Wait(o.cfg.HeartbeatInterval)
		if o.failed {
			continue
		}
		o.cpu.Exec(p, th, 5_000)
		now := p.Now()
		for _, peer := range o.curMap.UpOSDs() {
			if peer == o.id {
				continue
			}
			if _, seen := o.lastSeen[peer]; !seen {
				o.lastSeen[peer] = now
			}
			o.msgr.Send(Name(peer), &cephmsg.MPing{Src: o.name, Stamp: int64(now)})
			if o.cfg.Monitor != "" && !o.reported[peer] &&
				now.Sub(o.lastSeen[peer]) > heartbeatGrace {
				o.reported[peer] = true
				o.stats.FailureReports++
				o.msgr.Send(o.cfg.Monitor, &cephmsg.MOSDFailure{
					Reporter: o.name, Failed: peer, Epoch: o.curMap.Epoch,
				})
			}
		}
	}
}

// applyMap installs a newer cluster map.
func (o *OSD) applyMap(now sim.Time, m *cephmsg.MOSDMap) {
	if m.Epoch <= o.curMap.Epoch {
		return
	}
	next := o.curMap.Next()
	next.Epoch = m.Epoch
	up := make(map[int32]bool, len(m.Up))
	for _, id := range m.Up {
		up[id] = true
	}
	for _, dev := range next.Crush.Devices() {
		id := int32(dev)
		if up[id] {
			next.MarkUp(id)
		} else {
			next.MarkDown(id)
		}
	}
	old := o.curMap
	o.curMap = next
	for id := range o.reported {
		if up[id] {
			delete(o.reported, id)
		}
	}
	// A peer transitioning down->up gets a fresh heartbeat grace window;
	// its lastSeen timestamp predates its crash and would otherwise
	// trigger an instant (false) re-report.
	for id := range up {
		if !old.IsUp(id) {
			o.lastSeen[id] = now
		}
	}
	// Self-defense (Ceph: an OSD that sees itself marked down re-boots):
	// the monitor acted on silence observed across a crash window that has
	// since ended. A live daemon protests; a genuinely dead one cannot.
	if !next.IsUp(o.id) && !o.failed && o.cfg.Monitor != "" {
		o.msgr.Send(o.cfg.Monitor, &cephmsg.MOSDBoot{OSD: o.id, Epoch: next.Epoch})
	}
	// Abandon rep-op waits on replicas the new map removed: the write
	// continues degraded on the surviving acting set instead of hanging
	// the client until its timeout. Completion fires events that wake
	// blocked writers, so the order must not follow map iteration — two
	// runs would wake them differently and diverge.
	var stale []uint64
	for tid, w := range o.pending {
		if !next.IsUp(w.target) {
			stale = append(stale, tid)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, tid := range stale {
		o.abandonRep(tid)
	}
	// Retire degraded-write ledger entries for PGs whose acting set is whole
	// again: recovery (startRecovery below) pushes the missing objects, so
	// once placement is restored the PG no longer owes degraded debt.
	for pg := range o.degraded {
		if len(next.ActingSet(pg)) >= next.Replicas {
			delete(o.degraded, pg)
			o.stats.DegradedPGsHealed++
		}
	}
	o.startRecovery(old, next)
}

// DegradedLedger snapshots the per-PG count of writes accepted below full
// replication that have not yet been healed by a map change.
func (o *OSD) DegradedLedger() map[uint32]int64 {
	out := make(map[uint32]int64, len(o.degraded))
	for pg, n := range o.degraded {
		out[pg] = n
	}
	return out
}

// statsReply snapshots the OSD's counters for the manager.
func (o *OSD) statsReply(tid uint64) *cephmsg.MStatsReply {
	s := o.stats
	r := &cephmsg.MStatsReply{
		Tid:    tid,
		Source: o.name,
		Keys: []string{
			"client_writes", "client_reads", "client_stats", "client_deletes",
			"rep_ops", "rep_retries", "rep_aborts",
			"wrong_primary", "bytes_written", "bytes_read",
			"failure_reports", "objects_recovered", "pushes_served",
			"objects_scrubbed", "scrubs_served", "scrub_errors", "scrub_repairs",
			"map_epoch",
		},
		Values: []int64{
			s.ClientWrites, s.ClientReads, s.ClientStats, s.ClientDeletes,
			s.RepOpsServed, s.RepRetries, s.RepAborts,
			s.WrongPrimary, s.BytesWritten, s.BytesRead,
			s.FailureReports, s.ObjectsRecovered, s.PushesServed,
			s.ObjectsScrubbed, s.ScrubsServed, s.ScrubErrors, s.ScrubRepairs,
			int64(o.curMap.Epoch),
		},
	}
	// Self-healing counters are appended only when the min_size gate is on:
	// the mgr polls stats on the virtual clock, so growing the baseline
	// reply would perturb golden CPU accounting.
	if o.curMap.MinSize > 0 {
		r.Keys = append(r.Keys,
			"degraded_writes", "no_quorum_rejects", "degraded_pgs_healed")
		r.Values = append(r.Values,
			s.DegradedWrites, s.NoQuorumRejects, s.DegradedPGsHealed)
	}
	if o.cfg.RecoveryMaxPGs > 0 || o.cfg.RecoveryBps > 0 || o.cfg.RecoveryBackoffDepth > 0 {
		r.Keys = append(r.Keys,
			"pgs_backfilled", "recovery_bytes", "recovery_throttle_ns", "recovery_backoffs")
		r.Values = append(r.Values,
			s.PGsBackfilled, s.RecoveryBytes, int64(s.RecoveryThrottle), s.RecoveryBackoffs)
	}
	// Balanced-read serving is appended only once a flagged read has
	// actually arrived, for the same golden-safety reason as above.
	if s.BalancedReads > 0 {
		r.Keys = append(r.Keys, "balanced_reads")
		r.Values = append(r.Values, s.BalancedReads)
	}
	// Streamed writes likewise appear only once one has been ingested.
	if s.StreamWrites > 0 {
		r.Keys = append(r.Keys, "stream_writes")
		r.Values = append(r.Values, s.StreamWrites)
	}
	return r
}

// parseOSD returns the id of an entity named osd.<id> (Name's form). It runs
// on every heartbeat reply, so it cuts and parses instead of scanning.
func parseOSD(entity string) (int32, bool) {
	rest, ok := strings.CutPrefix(entity, "osd.")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseInt(rest, 10, 32)
	if err != nil {
		return 0, false
	}
	return int32(id), true
}
