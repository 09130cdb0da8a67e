// Package bluestore implements a BlueStore-like transactional object store:
// collections of objects with sparse extent data, an extent allocator over a
// virtual block device, onode metadata (attrs) kept on the objects with
// its commit cost charged explicitly, a write-ahead (deferred-write) path for
// small writes and a direct data path for large ones, and the
// bstore_aio/bstore_kv thread pair that Ceph's perf breakdown attributes
// "ObjectStore" CPU to.
//
// Data is retained as zero-copy wire.Bufferlist views, so integrity checks
// (CRC32C end-to-end) are real while memory stays proportional to the
// distinct payload buffers the workload allocates.
package bluestore

import (
	"cmp"
	"errors"
	"fmt"
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
	// readCyclesPerOp is charged on the reading thread per read/stat call.
	readCyclesPerOp int64 = 8_000
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

	stats Stats
	tr    *trace.Tracer
}

type collection struct {
	objects map[string]*onode
}

type onode struct {
	size    uint64
	version uint64
	mtime   sim.Time
	attrs   map[string][]byte
	extents []extent // sorted by off, non-overlapping
	// blocks are device extents backing the object, tracked for free-space
	// accounting.
	blocks []blockExtent
	// extents and blocks start on these arrays, so an object written once —
	// the usual one — has no side allocations.
	extent0 [1]extent
	block0  [1]blockExtent
}

type extent struct {
	off  uint64
	data *wire.Bufferlist
}

type blockExtent struct {
	dev    int64
	length int64
}

// txc is an in-flight transaction context walking the aio -> kv pipeline; the
// caller's Result lives in it.
type txc struct {
	txn *objstore.Transaction
	res objstore.Result
	// span/enq carry the current pipeline stage's trace span and its
	// enqueue instant (zero when the transaction is untraced).
	span trace.SpanID
	enq  sim.Time
}

// New creates a store and spawns its bstore_aio and bstore_kv threads on
// env. name distinguishes multiple stores in one simulation.
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
	}
	s.aioq.Serve(s.thAIO.Name, s.thAIO, s.aio)
	env.SpawnDaemon("bstore_kv-"+name, func(p *sim.Proc) { s.kvLoop(p) })
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
	prep := s.cpu.ExecSelf(p, prepCyclesPerOp*int64(len(txn.Ops)))
	s.stats.Transactions++
	s.stats.Ops += int64(len(txn.Ops))
	t := &txc{txn: txn}
	if s.tr.Enabled() && txn.TraceCtx != 0 {
		// Submission prep runs on the caller's thread but belongs to the
		// commit stage the caller opened.
		s.tr.AddCPU(trace.SpanID(txn.TraceCtx), s.cpu.Name(), prep)
		t.span = s.tr.Start(trace.SpanID(txn.TraceCtx), 0, trace.StageAIO, s.name)
		t.enq = s.env.Now()
	}
	s.aioq.Push(t)
	return &t.res
}

// aio is one turn of the bstore_aio thread: it streams large write payloads
// to the data device (after checksumming) and forwards the transaction to
// the kv-sync thread.
func (s *Store) aio(p *sim.Proc, t *txc) {
	if t.span != 0 {
		s.tr.AddQueueWait(t.span, p.Now().Sub(t.enq))
	}
	if s.slowIO > 0 {
		p.Wait(s.slowIO)
		t.res.ServiceTime += s.slowIO
	}
	var directBytes int64
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
		directBytes += int64(op.Data.Length())
	}
	if directBytes > 0 {
		csum := int64(float64(directBytes) * s.cfg.CsumCyclesPerByte)
		s.tr.AddCPU(t.span, s.cpu.Name(), s.cpu.Exec(p, s.thAIO, csum))
		svc := s.disk.Write(p, directBytes)
		t.res.ServiceTime += svc + s.cpu.CyclesToDuration(csum)
		s.cpu.NoteSwitches(s.thAIO, switchesPerAIO)
		s.stats.BytesWritten += directBytes
		s.tr.AddBytes(t.span, directBytes)
	}
	if t.span != 0 {
		s.tr.Finish(t.span)
		t.span = s.tr.Start(trace.SpanID(t.txn.TraceCtx), 0, trace.StageKV, s.name)
		t.enq = p.Now()
	}
	s.kvq.Push(t)
}

// kvLoop is the bstore_kv thread: it batches transactions, applies their
// mutations to the in-memory metadata/KV state, persists the WAL+metadata
// batch, and fires completion events.
func (s *Store) kvLoop(p *sim.Proc) {
	p.SetThread(s.thKV)
	for {
		batch := []*txc{s.kvq.Pop(p)}
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
				s.tr.AddQueueWait(t.span, p.Now().Sub(t.enq))
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
		kvCycles := kvCommitCycles + kvApplyCyclesPerOp*ops
		kvBusy := s.cpu.Exec(p, s.thKV, kvCycles)
		// Each transaction in the batch is attributed an equal share of the
		// sync cycle's CPU (the remainder of the integer split stays
		// unattributed, preserving traced <= busy).
		for _, t := range batch {
			s.tr.AddCPU(t.span, s.cpu.Name(), kvBusy/sim.Duration(len(batch)))
		}
		for _, t := range batch {
			if s.writeErrProb > 0 && s.env.Rand().Float64() < s.writeErrProb {
				s.stats.InjectedErrors++
				t.res.Err = ErrInjectedWrite
				continue
			}
			t.res.Err = s.apply(t.txn)
		}
		walSvc := s.disk.Write(p, walBytes)
		kvShare := (walSvc + s.cpu.CyclesToDuration(kvCycles)) / sim.Duration(len(batch))
		for _, t := range batch {
			t.res.ServiceTime += kvShare
		}
		s.cpu.NoteSwitches(s.thKV, switchesPerKVSync)
		s.stats.KVSyncCycles++
		s.stats.BytesWritten += walBytes
		for _, t := range batch {
			s.tr.Finish(t.span)
			t.res.Done.Fire()
		}
	}
}

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
		s.colls[op.Collection] = &collection{objects: make(map[string]*onode)}
		return nil
	case objstore.OpRmColl:
		c, ok := s.colls[op.Collection]
		if !ok {
			return objstore.ErrNoCollection
		}
		if len(c.objects) > 0 {
			return fmt.Errorf("collection %q not empty", op.Collection)
		}
		delete(s.colls, op.Collection)
		return nil
	}

	c, ok := s.colls[op.Collection]
	if !ok {
		return objstore.ErrNoCollection
	}
	switch op.Code {
	case objstore.OpTouch:
		c.getOrCreate(op.Object)
		return nil
	case objstore.OpWrite:
		o := c.getOrCreate(op.Object)
		return s.writeExtent(o, op.Offset, op.Data)
	case objstore.OpZero:
		o, ok := c.objects[op.Object]
		if !ok {
			return objstore.ErrNotFound
		}
		o.punch(op.Offset, op.Length)
		if op.Offset+op.Length > o.size {
			o.size = op.Offset + op.Length
		}
		o.bump(s.env.Now())
		return nil
	case objstore.OpTruncate:
		o, ok := c.objects[op.Object]
		if !ok {
			return objstore.ErrNotFound
		}
		o.truncate(op.Offset)
		o.bump(s.env.Now())
		return nil
	case objstore.OpRemove:
		o, ok := c.objects[op.Object]
		if !ok {
			return objstore.ErrNotFound
		}
		for _, b := range o.blocks {
			s.alloc.release(b.dev, b.length)
		}
		delete(c.objects, op.Object)
		return nil
	case objstore.OpSetAttr:
		o, ok := c.objects[op.Object]
		if !ok {
			return objstore.ErrNotFound
		}
		if o.attrs == nil {
			o.attrs = make(map[string][]byte)
		}
		o.attrs[op.AttrName] = op.AttrValue
		o.bump(s.env.Now())
		return nil
	}
	return fmt.Errorf("unknown op code %d", op.Code)
}

func (c *collection) getOrCreate(obj string) *onode {
	o, ok := c.objects[obj]
	if !ok {
		o = newOnode()
		c.objects[obj] = o
	}
	return o
}

func newOnode() *onode {
	o := &onode{}
	o.extents, o.blocks = o.extent0[:0], o.block0[:0]
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
	dev, err := s.alloc.allocate(allocLen)
	if err != nil {
		return err
	}
	o.blocks = append(o.blocks, blockExtent{dev: dev, length: allocLen})
	o.punch(off, uint64(n))
	o.insert(extent{off: off, data: data})
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

// punch removes [off, off+length) from the extent list, trimming partial
// overlaps.
func (o *onode) punch(off, length uint64) {
	if length == 0 {
		return
	}
	end := off + length
	// Filter in place. Extents do not overlap, so at most one spans the whole
	// hole and leaves two pieces; its right piece waits in tail so that the
	// kept prefix never overtakes the extent being read.
	kept := o.extents[:0]
	var tail extent
	for _, e := range o.extents {
		eEnd := e.off + uint64(e.data.Length())
		if eEnd <= off || e.off >= end {
			kept = append(kept, e)
			continue
		}
		if eEnd > end {
			skip := int(end - e.off)
			tail = extent{off: end, data: e.data.SubList(skip, e.data.Length()-skip)}
		}
		if e.off < off {
			kept = append(kept, extent{off: e.off, data: e.data.SubList(0, int(off-e.off))})
		}
	}
	clear(o.extents[len(kept):]) // dropped extents must not pin their data
	o.extents = kept
	if tail.data != nil {
		o.insert(tail)
	}
}

func (o *onode) insert(e extent) {
	o.extents = append(o.extents, e)
	o.sortExtents()
}

func (o *onode) sortExtents() {
	slices.SortFunc(o.extents, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
}

func (o *onode) truncate(size uint64) {
	if size < o.size {
		o.punch(size, o.size-size)
	}
	o.size = size
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

// readRange assembles [off, off+length) from extents, zero-filling holes. A
// range inside one extent is a view of that extent's data.
func (o *onode) readRange(off, length uint64) *wire.Bufferlist {
	end := off + length
	for _, e := range o.extents { // sorted and disjoint: the first to end past off decides
		if eEnd := e.off + uint64(e.data.Length()); eEnd > off {
			if e.off <= off && end <= eEnd {
				return e.data.SubList(int(off-e.off), int(length))
			}
			break
		}
	}
	out := &wire.Bufferlist{}
	pos := off
	for _, e := range o.extents {
		eEnd := e.off + uint64(e.data.Length())
		if eEnd <= pos || e.off >= end {
			continue
		}
		if e.off > pos {
			appendZeros(out, e.off-pos)
			pos = e.off
		}
		start := pos - e.off
		stop := eEnd
		if stop > end {
			stop = end
		}
		out.AppendBufferlist(e.data.SubList(int(start), int(stop-pos)))
		pos = stop
	}
	if pos < end {
		appendZeros(out, end-pos)
	}
	return out
}

// Read implements objstore.Store.
func (s *Store) Read(p *sim.Proc, coll, obj string, off, length uint64) (*wire.Bufferlist, error) {
	o, err := s.lookup(p, coll, obj)
	if err != nil {
		return nil, err
	}
	if off >= o.size {
		return &wire.Bufferlist{}, nil
	}
	if length == 0 || off+length > o.size {
		length = o.size - off
	}
	s.cpu.ExecSelf(p, int64(float64(length)*readCyclesPerByte))
	s.disk.Read(p, int64(length))
	s.stats.BytesRead += int64(length)
	return o.readRange(off, length), nil
}

// Stat implements objstore.Store.
func (s *Store) Stat(p *sim.Proc, coll, obj string) (objstore.StatInfo, error) {
	o, err := s.lookup(p, coll, obj)
	if err != nil {
		return objstore.StatInfo{}, err
	}
	return objstore.StatInfo{Size: o.size, Version: o.version, Mtime: o.mtime}, nil
}

// Exists implements objstore.Store.
func (s *Store) Exists(p *sim.Proc, coll, obj string) bool {
	_, err := s.lookup(p, coll, obj)
	return err == nil
}

// List implements objstore.Store.
func (s *Store) List(p *sim.Proc, coll string) ([]string, error) {
	s.cpu.ExecSelf(p, readCyclesPerOp)
	c, ok := s.colls[coll]
	if !ok {
		return nil, objstore.ErrNoCollection
	}
	names := make([]string, 0, len(c.objects))
	for n := range c.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (s *Store) lookup(p *sim.Proc, coll, obj string) (*onode, error) {
	s.cpu.ExecSelf(p, readCyclesPerOp)
	c, ok := s.colls[coll]
	if !ok {
		return nil, objstore.ErrNoCollection
	}
	o, ok := c.objects[obj]
	if !ok {
		return nil, objstore.ErrNotFound
	}
	return o, nil
}

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
		for oname, o := range c.objects {
			if len(o.extents) > 0 {
				out = append(out, DataObject{Collection: cname, Object: oname})
			}
		}
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
	o, ok := c.objects[obj]
	if !ok {
		return objstore.ErrNotFound
	}
	if len(o.extents) == 0 {
		return fmt.Errorf("bluestore %s: %s/%s has no data to corrupt", s.name, coll, obj)
	}
	clone := o.extents[0].data.Bytes()
	clone[len(clone)/2] ^= 0xFF
	o.extents[0].data = wire.FromBytes(clone)
	return nil
}
