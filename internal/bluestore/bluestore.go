// Package bluestore implements a BlueStore-like transactional object store:
// collections of objects with sparse extent data, an extent allocator over a
// virtual block device, onode metadata (size, version, mtime) kept on the
// objects with its commit cost charged explicitly, a write-ahead
// (deferred-write) path for small writes and a direct data path for large
// ones, and the bstore_aio/bstore_kv thread pair that Ceph's perf breakdown
// attributes "ObjectStore" CPU to.
//
// Data is retained as zero-copy wire.Bufferlist views, so integrity checks
// (CRC32C end-to-end) are real while memory stays proportional to the
// distinct payload buffers the workload allocates.
package bluestore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// ErrInjectedWrite is the transient I/O error surfaced by the write-error
// fault hook; the OSD reports it to the client as a backend error, and a
// later retry of the op (new transaction) rolls the dice again.
var ErrInjectedWrite = errors.New("bluestore: injected transient write error")

// Config carries the engine's tunables and CPU cost model. Zero values are
// replaced by defaults in New.
type Config struct {
	// DeviceBytes is the virtual block device capacity.
	DeviceBytes int64
	// MinAllocSize is the allocation granularity (BlueStore default 64 KiB
	// for HDD, 16 KiB for SSD; we default to 64 KiB).
	MinAllocSize int64
	// DeferredThreshold routes writes strictly smaller than this through
	// the WAL/KV journal instead of the direct data path.
	DeferredThreshold int64
	// KVBatchMax bounds how many transactions one kv-sync cycle commits.
	KVBatchMax int

	// CsumCyclesPerByte is charged on bstore_aio per data byte (checksum +
	// memcpy into device buffers).
	CsumCyclesPerByte float64
}

// LookupCycles is charged on the calling thread per read, stat, exists or
// list call, for the metadata lookup. A caller that pays it another way (an
// RPC handler's Charge) then calls Lookup or Names.
const LookupCycles int64 = 8_000

// The rest of the CPU cost model: values no experiment varies.
const (
	// prepCyclesPerOp is charged on the submitting thread per transaction op.
	prepCyclesPerOp int64 = 12_000
	// kvCommitCycles is charged on bstore_kv per sync cycle.
	kvCommitCycles int64 = 40_000
	// kvApplyCyclesPerOp is charged on bstore_kv per committed op.
	kvApplyCyclesPerOp int64 = 6_000
	// readCyclesPerByte is charged on the reading thread per byte.
	readCyclesPerByte float64 = 0.25
	// switchesPerKVSync is the voluntary context-switch count recorded per
	// kv-sync cycle (flush/fdatasync wakeups).
	switchesPerKVSync int64 = 2
	// switchesPerAIO is the voluntary context-switch count recorded per
	// aio completion.
	switchesPerAIO int64 = 1
)

// DefaultConfig returns the engine defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		DeviceBytes:       2 << 40, // 2 TiB
		MinAllocSize:      64 << 10,
		DeferredThreshold: 64 << 10,
		KVBatchMax:        16,
		CsumCyclesPerByte: 0.18,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DeviceBytes == 0 {
		c.DeviceBytes = d.DeviceBytes
	}
	if c.MinAllocSize == 0 {
		c.MinAllocSize = d.MinAllocSize
	}
	if c.DeferredThreshold == 0 {
		c.DeferredThreshold = d.DeferredThreshold
	}
	if c.KVBatchMax == 0 {
		c.KVBatchMax = d.KVBatchMax
	}
	if c.CsumCyclesPerByte == 0 {
		c.CsumCyclesPerByte = d.CsumCyclesPerByte
	}
	return c
}

// ThreadCat is the accounting category for BlueStore threads, matching the
// paper's "bstore_" perf pattern.
const ThreadCat = "bstore"

// Stats are engine counters for tests and reports.
type Stats struct {
	Transactions   int64
	Ops            int64
	DirectWrites   int64
	DeferredWrites int64
	KVSyncCycles   int64
	BytesWritten   int64
	BytesRead      int64
	InjectedErrors int64
}

// Store is a BlueStore-like engine bound to one host CPU and one disk.
type Store struct {
	env  *sim.Env
	cpu  *sim.CPU
	disk *sim.Disk
	cfg  Config
	name string

	thAIO *sim.Thread
	thKV  *sim.Thread

	alloc *allocator
	colls map[string]*collection

	aioq *sim.Queue[*txc]
	kvq  *sim.Queue[*txc]

	// Fault-injection state (see SetSlowIO / SetWriteErrorProb).
	slowIO       sim.Duration
	writeErrProb float64

	// calls and txcs are the partition's free lists of the task forms' call
	// records and of txcs (sim.Local), shared by its stores.
	calls *sim.FreeList[call]
	txcs  *sim.FreeList[txc]

	stats Stats
	tr    *trace.Tracer
}

type onode struct {
	// name is the object's name and next the object after it in its
	// collection's chain of names whose keys are equal (index.go).
	name    string
	next    *onode
	size    uint64
	version uint64
	mtime   sim.Time
	// extents are sorted by off and non-overlapping; past len(extents) lie
	// the slots of extents punched out, zeroed, for the next ones. They
	// start on extent0, so an object written once — the usual one — has no
	// side allocations.
	extents []extent
	extent0 [1]extent
}

// extent is a range of the object's bytes, a view of the buffer that wrote
// them the store holds itself (the writer's list is only read), and the block
// of device space the write took at dev. The extents of one write — its
// pieces not contiguous in memory, and the two a later write splits one into
// — share its block, which is released with the last extent on it.
type extent struct {
	off    uint64
	seg    []byte
	dev    int64
	devLen uint32
}

// txc is an in-flight transaction context walking the aio -> kv pipeline, a
// record from the partition's free list put back once it has completed the
// caller's Result, which lives in a record of the caller's and which the txc
// only points at.
type txc struct {
	txn *objstore.Transaction
	res *objstore.Result
	// span/enq carry the current pipeline stage's trace span and its
	// enqueue instant (zero when the transaction is untraced).
	span trace.SpanID
	enq  sim.Time
}

// New creates a store and registers its bstore_aio and bstore_kv threads,
// task chains, on env. name distinguishes multiple stores in one simulation.
func New(env *sim.Env, name string, cpu *sim.CPU, disk *sim.Disk, cfg Config) *Store {
	s := &Store{
		env:   env,
		cpu:   cpu,
		disk:  disk,
		cfg:   cfg.withDefaults(),
		name:  name,
		thAIO: sim.NewThread("bstore_aio-"+name, ThreadCat),
		thKV:  sim.NewThread("bstore_kv-"+name, ThreadCat),
		alloc: newAllocator(cfg.withDefaults().DeviceBytes, cfg.withDefaults().MinAllocSize),
		colls: make(map[string]*collection),
		aioq:  sim.NewQueue[*txc](env),
		kvq:   sim.NewQueue[*txc](env),
		calls: sim.Local[sim.FreeList[call]](env),
		txcs:  sim.Local[sim.FreeList[txc]](env),
	}
	aio := &aioServer{s: s}
	aio.done = s.aioq.ServeTask(s.thAIO.Name, aio.serve)
	env.Delay(0, &kvServer{s: s, batch: make([]*txc, 0, s.cfg.KVBatchMax)})
	return s
}

// Stats returns a copy of the engine counters.
func (s *Store) Stats() Stats { return s.stats }

// SetTracer enables pipeline-stage tracing (nil disables). Only
// transactions carrying a TraceCtx produce spans.
func (s *Store) SetTracer(tr *trace.Tracer) { s.tr = tr }

// SetSlowIO injects extra per-transaction service latency on the aio path
// (a degraded device); zero clears the fault.
func (s *Store) SetSlowIO(extra sim.Duration) { s.slowIO = extra }

// SetWriteErrorProb makes each transaction fail with ErrInjectedWrite with
// probability prob (a transient medium error); zero clears the fault.
func (s *Store) SetWriteErrorProb(prob float64) { s.writeErrProb = prob }

// FreeBytes returns unallocated device capacity.
func (s *Store) FreeBytes() int64 { return s.alloc.free() }

// QueueTransaction implements objstore.Store. Preparation cost is charged to
// the calling process's thread (tp_osd_tp in the baseline, the host RPC/DMA
// server in DoCeph); data and metadata persistence proceed asynchronously on
// the bstore threads.
func (s *Store) QueueTransaction(p *sim.Proc, txn *objstore.Transaction) *objstore.Result {
	res := new(objstore.Result)
	s.Submit(txn, res, s.cpu.ExecSelf(p, PrepCycles(txn)))
	return res
}

// PrepCycles is the preparation charge of txn, which QueueTransaction and Prep
// make on the calling thread before Submit.
func PrepCycles(txn *objstore.Transaction) int64 { return prepCyclesPerOp * int64(len(txn.Ops)) }

// Prep is the task form of QueueTransaction's preparation charge, for a
// caller with no proc: th runs it on the store's CPU (CPU.ExecThen), and next
// runs once it is paid, with the busy time stored through busy, to call
// Submit. It reports whether next was registered; if not, there was nothing
// to charge and the caller goes on at once.
func (s *Store) Prep(th *sim.Thread, txn *objstore.Transaction, busy *sim.Duration, next sim.Task) bool {
	return s.cpu.ExecThen(th, PrepCycles(txn), busy, next)
}

// Submit is the rest of QueueTransaction, after the preparation charge whose
// busy time was prep: the transaction enters the bstore_aio queue, and res,
// the caller's, is completed at commit. The store keeps no pointer to res once
// its Done has fired.
func (s *Store) Submit(txn *objstore.Transaction, res *objstore.Result, prep sim.Duration) {
	s.stats.Transactions++
	s.stats.Ops += int64(len(txn.Ops))
	t := s.txcs.Get()
	t.txn, t.res = txn, res
	if s.tr.Enabled() && txn.TraceCtx != 0 {
		// Submission prep runs on the caller's thread but belongs to the
		// commit stage the caller opened.
		s.tr.AddCPU(trace.SpanID(txn.TraceCtx), s.cpu.Name(), prep)
		t.span = s.tr.Start(trace.SpanID(txn.TraceCtx), 0, trace.StageAIO, s.name)
		t.enq = s.env.Now()
	}
	s.aioq.Push(t)
}

// aioServer is the bstore_aio thread as a task chain over aioq: a turn waits
// out an injected slow-IO delay, checksums and streams large write payloads
// to the data device, and forwards the transaction to bstore_kv. Its steps
// are joined where the proc form blocked, so that it runs the events the proc
// would, in the same order.
type aioServer struct {
	s *Store
	// done is the served identity, run when a turn is over; t is the
	// transaction of the turn under way, step what its next step does.
	done sim.Task
	t    *txc
	step aioStep
	// direct and csum are the turn's direct-write bytes and their checksum
	// cycles; busy and svc the charges of its CPU burst and disk write.
	direct, csum int64
	busy, svc    sim.Duration
}

// aioStep is what the aio thread's next step does.
type aioStep uint8

const (
	aioStart   aioStep = iota // the transaction is taken: wait out a slow device
	aioSlowed                 // the slow-IO delay is over
	aioData                   // find the direct writes and checksum them
	aioSummed                 // the checksum is paid for: write the payload
	aioWritten                // the payload is on the device
	aioForward                // hand the transaction to bstore_kv
)

// serve starts a turn on t, the served identity's body.
func (a *aioServer) serve(t *txc) {
	a.t, a.step = t, aioStart
	a.Run()
}

// Run is the aio thread's next step.
func (a *aioServer) Run() {
	s, t := a.s, a.t
	for {
		switch a.step {
		case aioStart:
			if t.span != 0 {
				s.tr.AddQueueWait(t.span, s.env.Now().Sub(t.enq))
			}
			a.step = aioData
			if s.slowIO > 0 {
				a.step = aioSlowed
				if s.env.WaitThen(s.slowIO, a) {
					return
				}
			}
		case aioSlowed:
			t.res.ServiceTime += s.slowIO
			a.step = aioData
		case aioData:
			a.direct = 0
			for i := range t.txn.Ops {
				op := &t.txn.Ops[i]
				if op.Code != objstore.OpWrite || op.Data == nil {
					continue
				}
				if int64(op.Data.Length()) < s.cfg.DeferredThreshold {
					s.stats.DeferredWrites++
					continue // rides the kv WAL write
				}
				s.stats.DirectWrites++
				a.direct += int64(op.Data.Length())
			}
			a.step = aioForward
			if a.direct > 0 {
				a.csum = int64(float64(a.direct) * s.cfg.CsumCyclesPerByte)
				a.step = aioSummed
				if s.cpu.ExecThen(s.thAIO, a.csum, &a.busy, a) {
					return
				}
			}
		case aioSummed:
			s.tr.AddCPU(t.span, s.cpu.Name(), a.busy)
			a.step = aioWritten
			var queued bool
			if a.svc, queued = s.disk.WriteThen(a.direct, a); queued {
				return
			}
		case aioWritten:
			t.res.ServiceTime += a.svc + s.cpu.CyclesToDuration(a.csum)
			s.cpu.NoteSwitches(s.thAIO, switchesPerAIO)
			s.stats.BytesWritten += a.direct
			s.tr.AddBytes(t.span, a.direct)
			a.step = aioForward
		case aioForward:
			if t.span != 0 {
				s.tr.Finish(t.span)
				t.span = s.tr.Start(trace.SpanID(t.txn.TraceCtx), 0, trace.StageKV, s.name)
				t.enq = s.env.Now()
			}
			s.kvq.Push(t)
			a.t = nil
			a.done.Run() // the next turn may begin in here: touch nothing after
			return
		}
	}
}

// String names the aio thread in deadlock reports.
func (a *aioServer) String() string { return a.s.thAIO.Name }

// kvServer is the bstore_kv thread as a task chain over kvq: a turn batches
// the transactions waiting, applies their mutations to the in-memory
// metadata/KV state, persists the WAL+metadata batch, and fires their
// completion events. Its first step, an event of its own scheduled at
// construction, as the start of a thread spawned then would be, registers it
// on kvq, where that thread would first pop.
type kvServer struct {
	s *Store
	// done is the served identity (nil until the first step), run when a
	// turn is over; batch is the turn's transactions (the array, sized for
	// KVBatchMax once, is cleared after each turn).
	done  sim.Task
	batch []*txc
	step  kvStep
	// walBytes and cycles size the sync; busy and svc are the charges of
	// its CPU burst and WAL write.
	walBytes, cycles int64
	busy, svc        sim.Duration
}

// kvStep is what the kv thread's next step does.
type kvStep uint8

const (
	kvSynced  kvStep = iota // the sync's CPU is paid for: apply, then write the WAL
	kvWritten               // the WAL batch is on the device: complete the batch
)

// serve starts a turn on first, the served identity's body: the batch is
// first and whatever else waits, up to KVBatchMax.
func (k *kvServer) serve(first *txc) {
	s := k.s
	batch := append(k.batch, first)
	for len(batch) < s.cfg.KVBatchMax {
		t, ok := s.kvq.TryPop()
		if !ok {
			break
		}
		batch = append(batch, t)
	}
	var walBytes int64 = 512 // batch header
	var ops int64
	for _, t := range batch {
		if t.span != 0 {
			s.tr.AddQueueWait(t.span, s.env.Now().Sub(t.enq))
		}
		var tWal int64
		for i := range t.txn.Ops {
			op := &t.txn.Ops[i]
			ops++
			tWal += 256 // per-op metadata/onode delta
			if op.Code == objstore.OpWrite && op.Data != nil &&
				int64(op.Data.Length()) < s.cfg.DeferredThreshold {
				tWal += int64(op.Data.Length())
			}
		}
		walBytes += tWal
		s.tr.AddBytes(t.span, tWal)
	}
	k.batch, k.walBytes, k.step = batch, walBytes, kvSynced
	k.cycles = kvCommitCycles + kvApplyCyclesPerOp*ops
	if !s.cpu.ExecThen(s.thKV, k.cycles, &k.busy, k) {
		k.Run()
	}
}

// Run is the kv thread's next step; the first registers the thread.
func (k *kvServer) Run() {
	s := k.s
	if k.done == nil {
		k.done = s.kvq.ServeTask(s.thKV.Name, k.serve)
		return
	}
	batch := k.batch
	if k.step == kvSynced {
		// Each transaction in the batch is attributed an equal share of the
		// sync cycle's CPU (the remainder of the integer split stays
		// unattributed, preserving traced <= busy).
		for _, t := range batch {
			s.tr.AddCPU(t.span, s.cpu.Name(), k.busy/sim.Duration(len(batch)))
		}
		for _, t := range batch {
			if s.writeErrProb > 0 && s.env.Rand().Float64() < s.writeErrProb {
				s.stats.InjectedErrors++
				t.res.Err = ErrInjectedWrite
				continue
			}
			t.res.Err = s.apply(t.txn)
		}
		k.step = kvWritten
		var queued bool
		if k.svc, queued = s.disk.WriteThen(k.walBytes, k); queued {
			return
		}
	}
	kvShare := (k.svc + s.cpu.CyclesToDuration(k.cycles)) / sim.Duration(len(batch))
	for _, t := range batch {
		t.res.ServiceTime += kvShare
	}
	s.cpu.NoteSwitches(s.thKV, switchesPerKVSync)
	s.stats.KVSyncCycles++
	s.stats.BytesWritten += k.walBytes
	for _, t := range batch {
		s.tr.Finish(t.span)
		res := t.res
		s.txcs.Put(t)
		res.Done.Fire()
	}
	clear(batch)
	k.batch = batch[:0]
	k.done.Run() // the next turn may begin in here: touch nothing after
}

// String names the kv thread in deadlock reports.
func (k *kvServer) String() string { return k.s.thKV.Name }

// apply mutates the in-memory state. The first failing op aborts the rest
// (mirroring Ceph, where a failing ObjectStore transaction is fatal; here we
// surface it as Result.Err so tests can assert on it).
func (s *Store) apply(txn *objstore.Transaction) error {
	for i := range txn.Ops {
		if err := s.applyOp(&txn.Ops[i]); err != nil {
			return fmt.Errorf("bluestore %s: op %d (%v): %w", s.name, i, txn.Ops[i].Code, err)
		}
	}
	return nil
}

func (s *Store) applyOp(op *objstore.Op) error {
	switch op.Code {
	case objstore.OpMkColl:
		if _, dup := s.colls[op.Collection]; dup {
			return fmt.Errorf("collection %q exists", op.Collection)
		}
		s.colls[op.Collection] = &collection{}
		return nil
	}

	c, ok := s.colls[op.Collection]
	if !ok {
		return objstore.ErrNoCollection
	}
	switch op.Code {
	case objstore.OpWrite:
		o := c.getOrCreate(op.Object)
		return s.writeExtent(o, op.Offset, op.Data)
	case objstore.OpRemove:
		o := c.remove(op.Object)
		if o == nil {
			return objstore.ErrNotFound
		}
		o.release(s.alloc)
		return nil
	}
	return fmt.Errorf("unknown op code %d", op.Code)
}

func newOnode() *onode {
	o := &onode{}
	o.extents = o.extent0[:0]
	return o
}

func (s *Store) writeExtent(o *onode, off uint64, data *wire.Bufferlist) error {
	if data == nil || data.Length() == 0 {
		// Zero-length write (decoded from a frame, it carries no list at
		// all): creation/touch semantics only.
		o.bump(s.env.Now())
		return nil
	}
	n := int64(data.Length())
	// Allocate device space rounded to min_alloc_size.
	allocLen := (n + s.cfg.MinAllocSize - 1) / s.cfg.MinAllocSize * s.cfg.MinAllocSize
	if allocLen > math.MaxUint32 {
		return fmt.Errorf("write of %d bytes: a block is at most 4 GiB", n)
	}
	dev, err := s.alloc.allocate(allocLen)
	if err != nil {
		return err
	}
	o.write(s.alloc, off, data, dev, uint32(allocLen))
	if off+uint64(n) > o.size {
		o.size = off + uint64(n)
	}
	o.bump(s.env.Now())
	return nil
}

func (o *onode) bump(now sim.Time) {
	o.version++
	o.mtime = now
}

// write replaces [off, off+data.Length()) with views of data, backed by the
// block at dev: the range is punched out of the extents first, so that the
// extents that take it reuse the slots of ones punched out. Each run of
// data's segments that is contiguous in memory is one extent.
func (o *onode) write(a *allocator, off uint64, data *wire.Bufferlist, dev int64, devLen uint32) {
	o.punch(a, off, uint64(data.Length()))
	for i := 0; i < data.Segments(); {
		var run []byte
		run, i = data.Run(i)
		o.grow(off, dev, devLen).seg = run
		off += uint64(len(run))
	}
	o.sortExtents()
}

// grow appends an empty extent at off on the block at dev, in the slot past
// the last when the array has one, and returns it. The extents may move.
func (o *onode) grow(off uint64, dev int64, devLen uint32) *extent {
	o.extents = append(o.extents, extent{off: off, dev: dev, devLen: devLen})
	return &o.extents[len(o.extents)-1]
}

// punch removes [off, off+length) from the extent list, trimming partial
// overlaps in place. An extent punched out whole is dropped, and its block
// released unless an extent is left on it.
func (o *onode) punch(a *allocator, off, length uint64) {
	if length == 0 {
		return
	}
	end := off + length
	for i := 0; i < len(o.extents); {
		e := &o.extents[i]
		eEnd := e.off + uint64(len(e.seg))
		switch {
		case eEnd <= off || e.off >= end: // clear of the hole
		case e.off < off && eEnd > end:
			// The hole is inside e: its tail becomes an extent of its own on
			// the same block. Extents do not overlap, so e was the only one.
			tail := e.seg[end-e.off:]
			e.seg = e.seg[:off-e.off]
			o.grow(end, e.dev, e.devLen).seg = tail
			return
		case e.off < off:
			e.seg = e.seg[:off-e.off]
		case eEnd > end:
			e.seg = e.seg[end-e.off:]
			e.off = end
		default:
			// Swallowed: the last extent takes its slot.
			last := len(o.extents) - 1
			dev, devLen := e.dev, e.devLen
			o.extents[i] = o.extents[last]
			o.extents[last] = extent{} // a dropped extent must not pin its data
			o.extents = o.extents[:last]
			if o.firstOn(dev) < 0 {
				a.release(dev, int64(devLen))
			}
			continue // the extent moved in is looked at next
		}
		i++
	}
}

// firstOn is the index of the first extent on the block at dev, or -1.
func (o *onode) firstOn(dev int64) int {
	for i := range o.extents {
		if o.extents[i].dev == dev {
			return i
		}
	}
	return -1
}

// release gives back the device space of every block the object holds.
func (o *onode) release(a *allocator) {
	for i := range o.extents {
		if e := &o.extents[i]; o.firstOn(e.dev) == i {
			a.release(e.dev, int64(e.devLen))
		}
	}
}

func (o *onode) sortExtents() {
	slices.SortFunc(o.extents, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
}

// zeroPage backs hole fills in readRange. Read results are never mutated
// (Bufferlist aliasing contract), so every hole can share the one page
// instead of allocating per read.
var zeroPage = make([]byte, 64<<10)

// appendZeros appends n zero bytes to out as views of the shared zero page.
func appendZeros(out *wire.Bufferlist, n uint64) {
	for n > 0 {
		c := n
		if c > uint64(len(zeroPage)) {
			c = uint64(len(zeroPage))
		}
		out.Append(zeroPage[:c])
		n -= c
	}
}

// readRange appends [off, off+length) of the object to dst as views of its
// extents, zero-filling holes, and returns dst. A nil dst is a new list.
func (o *onode) readRange(dst *wire.Bufferlist, off, length uint64) *wire.Bufferlist {
	end := off + length
	if dst == nil {
		dst = wire.Sized(1)
	}
	pos := off
	for i := range o.extents {
		e := &o.extents[i]
		eEnd := e.off + uint64(len(e.seg))
		if eEnd <= pos || e.off >= end {
			continue
		}
		if e.off > pos {
			appendZeros(dst, e.off-pos)
			pos = e.off
		}
		stop := min(eEnd, end)
		dst.Append(e.seg[pos-e.off : stop-e.off])
		pos = stop
	}
	if pos < end {
		appendZeros(dst, end-pos)
	}
	return dst
}

// Lookup is a stat after its LookupCycles charge.
func (s *Store) Lookup(coll, obj string) (objstore.StatInfo, error) {
	o, err := s.find(coll, obj)
	if err != nil {
		return objstore.StatInfo{}, err
	}
	return objstore.StatInfo{Size: o.size, Version: o.version, Mtime: o.mtime}, nil
}

// Names is a list after its LookupCycles charge.
func (s *Store) Names(coll string) ([]string, error) {
	c, ok := s.colls[coll]
	if !ok {
		return nil, objstore.ErrNoCollection
	}
	names := make([]string, 0, c.count)
	c.each(func(o *onode) { names = append(names, o.name) })
	sort.Strings(names)
	return names, nil
}

// ObjectName implements objstore.ObjectIndex: a receiver that decodes the
// names of ops for the store shares the name of an object it holds.
func (s *Store) ObjectName(coll string, b []byte) (string, bool) {
	if c, ok := s.colls[coll]; ok {
		if o := c.getBytes(b); o != nil {
			return o.name, true
		}
	}
	return "", false
}

// find is the metadata lookup, uncharged.
func (s *Store) find(coll, obj string) (*onode, error) {
	c, ok := s.colls[coll]
	if !ok {
		return nil, objstore.ErrNoCollection
	}
	o := c.get(obj)
	if o == nil {
		return nil, objstore.ErrNotFound
	}
	return o, nil
}

// call is one task-form call in flight (QueueTransactionThen, ReadThen,
// StatThen, ExistsThen, ListThen), from the partition's free list: the caller's
// record, its thread and continuation, and what a step hands the next.
type call struct {
	s    *Store
	th   *sim.Thread
	c    *objstore.Call
	next sim.Task
	step callStep
	// o and length are the object a read found and the bytes it reads; busy
	// is the preparation charge of a transaction.
	o      *onode
	length uint64
	busy   sim.Duration
}

// callStep is what a call's next step does.
type callStep uint8

const (
	callPrepped  callStep = iota + 1 // the preparation is paid for: submit
	callLookedUp                     // a read's lookup is paid for: find the object
	callCopied                       // the read's CPU is paid for: read the device
	callRead                         // the device read is done: the data
	callStat                         // the stat's lookup is paid for: answer
	callExists                       // the lookup is paid for: answer
	callList                         // the list's lookup is paid for: answer
)

// start runs a call of c on th from its first step, which charges cycles on
// th and goes on to step; it reports whether next was registered, as the task
// forms do.
func (s *Store) start(th *sim.Thread, c *objstore.Call, next sim.Task, cycles int64, step callStep) bool {
	r := s.calls.Get()
	r.s, r.th, r.c, r.next, r.step = s, th, c, next, step
	if s.cpu.ExecThen(th, cycles, &r.busy, r) || r.advance() {
		return true
	}
	r.put()
	return false
}

// put zeroes r and lists it for the next call.
func (r *call) put() { r.s.calls.Put(r) }

// Run goes on after the step that waited; once the call is done, its
// continuation runs.
func (r *call) Run() {
	if r.advance() {
		return
	}
	next := r.next
	r.put()
	next.Run()
}

// advance takes the call through its steps until one waits, reporting true,
// or the results are in c.
func (r *call) advance() bool {
	s, c := r.s, r.c
	for {
		switch r.step {
		case callPrepped:
			s.Submit(c.Txn, c.Result, r.busy)
			return false
		case callLookedUp:
			o, err := s.find(c.Coll, c.Object)
			switch {
			case err != nil:
				c.Data, c.Err = nil, err
				return false
			case c.Off >= o.size:
				if c.Data == nil {
					c.Data = &wire.Bufferlist{}
				}
				c.Err = nil
				return false
			}
			r.o, r.length = o, readLength(o, c.Off, c.Length)
			r.step = callCopied
			if s.cpu.ExecThen(r.th, readCycles(r.length), nil, r) {
				return true
			}
		case callCopied:
			r.step = callRead
			if _, queued := s.disk.ReadThen(int64(r.length), r); queued {
				return true
			}
		case callRead:
			s.stats.BytesRead += int64(r.length)
			c.Data, c.Err = r.o.readRange(c.Data, c.Off, r.length), nil
			return false
		case callStat:
			c.Stat, c.Err = s.Lookup(c.Coll, c.Object)
			return false
		case callExists:
			_, err := s.find(c.Coll, c.Object)
			c.Exists = err == nil
			return false
		case callList:
			c.Names, c.Err = s.Names(c.Coll)
			return false
		}
	}
}

// QueueTransactionThen implements objstore.Store: Prep, then Submit.
func (s *Store) QueueTransactionThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return s.start(th, c, next, PrepCycles(c.Txn), callPrepped)
}

// ReadThen implements objstore.Store.
func (s *Store) ReadThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return s.start(th, c, next, LookupCycles, callLookedUp)
}

// StatThen implements objstore.Store.
func (s *Store) StatThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return s.start(th, c, next, LookupCycles, callStat)
}

// ExistsThen implements objstore.Store.
func (s *Store) ExistsThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return s.start(th, c, next, LookupCycles, callExists)
}

// ListThen implements objstore.Store.
func (s *Store) ListThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return s.start(th, c, next, LookupCycles, callList)
}

// readLength is the length of a read of length bytes (0 = to EOF) at off of
// o, which holds off.
func readLength(o *onode, off, length uint64) uint64 {
	if length == 0 || off+length > o.size {
		return o.size - off
	}
	return length
}

// readCycles is the CPU a read of length bytes charges the reading thread.
func readCycles(length uint64) int64 { return int64(float64(length) * readCyclesPerByte) }

// DataObject names one stored object that holds byte extents.
type DataObject struct {
	Collection string
	Object     string
}

// DataObjects returns every object that currently has data, sorted by
// collection then object — the deterministic candidate set bit-rot
// injection picks from. It is an instantaneous inspection hook (no
// simulated CPU or disk time), like CorruptObject.
func (s *Store) DataObjects() []DataObject {
	var out []DataObject
	for cname, c := range s.colls {
		c.each(func(o *onode) {
			if len(o.extents) > 0 {
				out = append(out, DataObject{Collection: cname, Object: o.name})
			}
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Collection != out[j].Collection {
			return out[i].Collection < out[j].Collection
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// CorruptObject flips one byte of obj's first extent — a bit-rot injection
// hook for scrub tests. The corrupted extent is re-backed by a private
// clone first, so the shared payload buffers of other replicas stay intact.
func (s *Store) CorruptObject(coll, obj string) error {
	c, ok := s.colls[coll]
	if !ok {
		return objstore.ErrNoCollection
	}
	o := c.get(obj)
	if o == nil {
		return objstore.ErrNotFound
	}
	if len(o.extents) == 0 {
		return fmt.Errorf("bluestore %s: %s/%s has no data to corrupt", s.name, coll, obj)
	}
	e := &o.extents[0]
	clone := append([]byte(nil), e.seg...)
	clone[len(clone)/2] ^= 0xFF
	e.seg = clone
	return nil
}
