// Package objstore defines the pluggable storage-backend interface of the
// mini-Ceph OSD — the counterpart of Ceph's ObjectStore — together with the
// Transaction type submitted through it. DoCeph's key architectural trick
// (paper §3.1) is that this interface can be implemented either by a local
// BlueStore-like engine or by a proxy that forwards every call across the
// DPU/host boundary; both implementations live in sibling packages.
package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Errors returned by Store implementations.
var (
	ErrNotFound     = errors.New("objstore: object not found")
	ErrNoCollection = errors.New("objstore: collection not found")
	// ErrProxyIO is surfaced by proxy backends when the remote side failed
	// for a reason other than the ones above.
	ErrProxyIO = errors.New("objstore: proxy I/O error")
)

// OpCode identifies one mutation inside a Transaction.
type OpCode uint8

// Transaction op codes. Each value is the byte a transaction frame carries
// across PCIe, so it is fixed; a store refuses any other code.
const (
	OpWrite  OpCode = 2
	OpRemove OpCode = 5
	OpMkColl OpCode = 7
)

func (c OpCode) String() string {
	switch c {
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	case OpMkColl:
		return "mkcoll"
	}
	return fmt.Sprintf("opcode(%d)", uint8(c))
}

// Op is a single mutation within a transaction.
type Op struct {
	Code       OpCode
	Collection string
	Object     string
	Offset     uint64
	Length     uint64
	Data       *wire.Bufferlist
	// AttrName and AttrValue are part of every op's encoded form; no op
	// code uses them.
	AttrName  string
	AttrValue []byte
}

// Transaction is an ordered batch of mutations applied atomically by a
// Store, mirroring ObjectStore::Transaction. Build one with the fluent
// helpers and submit it via Store.QueueTransaction.
type Transaction struct {
	Ops []Op
	// TraceCtx is the submitting operation's trace span context
	// (trace.SpanID as a raw uint64). Instrumentation only: it is not part
	// of the transaction's encoded form and survives the proxy→host DMA
	// hop out-of-band via the segment tag.
	TraceCtx uint64
	// StreamReuse marks a transaction that is one chunk of an in-flight
	// stream: its staging regions and descriptors are re-established
	// against the same pre-registered host region as the previous chunk,
	// so the DMA engine may charge the amortized per-segment setup
	// (§3.3's "reusing pre-established memory regions") instead of a full
	// CommChannel negotiation per chunk. Not part of the encoded form.
	StreamReuse bool
}

// NewTransaction returns an empty transaction with room for one op in the
// same allocation: what a builder of one-op transactions starts from.
func NewTransaction() *Transaction {
	w := &struct {
		Transaction
		slot [1]Op
	}{}
	w.Ops = w.slot[:0]
	return &w.Transaction
}

// Write writes data at offset off of obj in coll.
func (t *Transaction) Write(coll, obj string, off uint64, data *wire.Bufferlist) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpWrite, Collection: coll, Object: obj,
		Offset: off, Length: uint64(data.Length()), Data: data})
	return t
}

// Remove deletes obj from coll.
func (t *Transaction) Remove(coll, obj string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpRemove, Collection: coll, Object: obj})
	return t
}

// MkColl creates a collection.
func (t *Transaction) MkColl(coll string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpMkColl, Collection: coll})
	return t
}

// DataBytes returns the total payload carried by write ops — the quantity
// the proxy's plane classifier and the DMA segmenter care about.
func (t *Transaction) DataBytes() int64 {
	var n int64
	for _, op := range t.Ops {
		if op.Data != nil {
			n += int64(op.Data.Length())
		}
	}
	return n
}

// Encode serializes the transaction (used by the proxy RPC/DMA data plane).
func (t *Transaction) Encode(e *wire.Encoder) {
	e.U32(uint32(len(t.Ops)))
	for i := range t.Ops {
		op := &t.Ops[i]
		e.U8(uint8(op.Code))
		e.String(op.Collection)
		e.String(op.Object)
		e.U64(op.Offset)
		e.U64(op.Length)
		if op.Data != nil {
			e.BufferlistField(op.Data)
		} else {
			e.BufferlistField(&wire.Bufferlist{})
		}
		e.String(op.AttrName)
		e.Blob(op.AttrValue)
	}
}

// DecodeTransaction parses a transaction produced by Encode.
func DecodeTransaction(d *wire.Decoder) (*Transaction, error) {
	n := d.U32()
	t := &Transaction{}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := Op{
			Code:       OpCode(d.U8()),
			Collection: d.String(),
			Object:     d.String(),
			Offset:     d.U64(),
			Length:     d.U64(),
		}
		bl := d.BufferlistField()
		if bl.Length() > 0 {
			op.Data = bl
		}
		op.AttrName = d.String()
		op.AttrValue = d.Blob()
		t.Ops = append(t.Ops, op)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("objstore: decoding transaction: %w", err)
	}
	return t, nil
}

// EncodeBL serializes the transaction as [u32 metaLen][meta][data...] where
// the data bytes of every write op are appended as zero-copy bufferlist
// segments rather than copied into the frame. This is the wire format the
// DoCeph data plane uses: a multi-megabyte write costs no payload memcpy to
// frame or parse.
func (t *Transaction) EncodeBL() *wire.Bufferlist {
	segs := 1
	for i := range t.Ops {
		if d := t.Ops[i].Data; d != nil {
			segs += d.Segments()
		}
	}
	bl := wire.Sized(segs)
	t.EncodeBLInto(make([]byte, 0, 4+64+64*len(t.Ops)), bl)
	return bl
}

// EncodeBLInto is EncodeBL into storage the caller owns: the metadata is
// written over meta's array (grown by append when it does not fit) and the
// frame is appended to dst. The frame shares meta's array and the payloads'.
func (t *Transaction) EncodeBLInto(meta []byte, dst *wire.Bufferlist) {
	// Length prefix and metadata share one buffer; the prefix is patched in
	// once the metadata length is known.
	e := wire.EncoderOn(meta)
	e.U32(0)
	e.U32(uint32(len(t.Ops)))
	for i := range t.Ops {
		op := &t.Ops[i]
		e.U8(uint8(op.Code))
		e.String(op.Collection)
		e.String(op.Object)
		e.U64(op.Offset)
		e.U64(op.Length)
		var dataLen int
		if op.Data != nil {
			dataLen = op.Data.Length()
		}
		e.U32(uint32(dataLen))
		e.String(op.AttrName)
		e.Blob(op.AttrValue)
	}
	frame := e.Bytes()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	dst.Append(frame)
	for i := range t.Ops {
		if t.Ops[i].Data != nil {
			dst.AppendBufferlist(t.Ops[i].Data)
		}
	}
}

// Names is the collection and object of the last op a decoder read and, in
// Colls when it is not nil, the collection names its receiver has read. A
// receiver sees one collection over and over, the others of its placement
// groups in turn, and one object for a run of stream chunks, so the decoder
// shares equal names instead of allocating them.
type Names struct {
	Collection, Object string
	Colls              *Colls
}

// Colls is the set of collection names a receiver has decoded, sorted, and
// looked up by their bytes: a name is allocated the first time it is read, and
// shared from then on. A partition's receivers can share one (sim.Local): they
// serve the same few hundred placement groups.
type Colls struct{ names []string }

// maxColls bounds Colls: a malformed stream of names must not grow it
// without end.
const maxColls = 1 << 12

// intern returns the name b spells: the one listed, or a new string, which is
// then listed.
func (c *Colls) intern(b []byte) string {
	lo, hi := 0, len(c.names)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.names[m] < string(b) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.names) && c.names[lo] == string(b) {
		return c.names[lo]
	}
	s := string(b)
	if len(c.names) < maxColls {
		c.names = slices.Insert(c.names, lo, s)
	}
	return s
}

// Coll reads a collection name from d and makes it the last one: the last
// one, or one of Colls, is shared when its bytes match.
func (n *Names) Coll(d *wire.Decoder) string {
	b := d.StringBytes()
	s := n.Collection
	switch {
	case string(b) == s:
	case n.Colls != nil:
		s = n.Colls.intern(b)
	default:
		s = string(b)
	}
	n.Collection = s
	return s
}

// DecodeTransactionBL parses a frame produced by EncodeBL into a new
// transaction. Data payloads are zero-copy views into bl. It reads and
// updates last.
func DecodeTransactionBL(bl *wire.Bufferlist, last *Names) (*Transaction, error) {
	t := NewTransaction()
	if err := t.DecodeBL(bl, last); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeBL is DecodeTransactionBL into t, which a record can hold inline: it
// replaces t's ops, keeping their array when it has room (a transaction over a
// one-op slot decodes a one-op frame without allocating), and clears the
// fields outside the encoded form. On error t holds no ops.
func (t *Transaction) DecodeBL(bl *wire.Bufferlist, last *Names) error {
	*t = Transaction{Ops: t.Ops[:0]}
	if err := t.decodeOps(bl, last); err != nil {
		t.Ops = t.Ops[:0]
		return err
	}
	return nil
}

func (t *Transaction) decodeOps(bl *wire.Bufferlist, last *Names) error {
	if bl.Length() < 4 {
		return fmt.Errorf("objstore: frame too short (%d bytes)", bl.Length())
	}
	metaLen := int(binary.LittleEndian.Uint32(bl.Prefix(4)))
	if 4+metaLen > bl.Length() {
		return fmt.Errorf("objstore: meta length %d exceeds frame %d", metaLen, bl.Length())
	}
	d := wire.NewDecoder(bl.Prefix(4 + metaLen)[4:])
	n := d.U32()
	// An op's metadata is at least minOpMeta bytes, so a count the metadata
	// cannot hold (the decode fails below) does not size the slice.
	if k := min(int(n), metaLen/minOpMeta); k > cap(t.Ops) {
		t.Ops = make([]Op, 0, k)
	}
	dataOff := 4 + metaLen
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := Op{
			Code:       OpCode(d.U8()),
			Collection: last.Coll(d),
			Object:     d.StringLike(last.Object),
			Offset:     d.U64(),
			Length:     d.U64(),
		}
		last.Object = op.Object
		dataLen := int(d.U32())
		op.AttrName = d.String()
		op.AttrValue = d.Blob()
		if dataLen > 0 {
			if dataOff+dataLen > bl.Length() {
				return fmt.Errorf("objstore: data overruns frame")
			}
			op.Data = bl.SubList(dataOff, dataLen)
			dataOff += dataLen
		}
		t.Ops = append(t.Ops, op)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("objstore: decoding transaction frame: %w", err)
	}
	return nil
}

// minOpMeta is the encoded size of an op with empty names and no data:
// code, two string lengths, offset, length, data length, attr name and value
// lengths.
const minOpMeta = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 4

// StatInfo is object metadata returned by Stat.
type StatInfo struct {
	Size    uint64
	Version uint64
	Mtime   sim.Time
}

// Result tracks an asynchronously queued transaction. Done fires when the
// transaction is durably committed; Err is valid once Done has fired.
// ServiceTime, when the backend fills it, is the pure commit service time
// (checksum CPU + device streaming + KV share) excluding queueing — the
// paper's Table 3 "Host write" metric. Done lives in the Result, so a Result
// is handled by pointer only. A Result belongs to the caller: it lives in a
// record the caller already has, a submission names it, and the store only
// sets it, so the caller may read it for as long as it keeps that record while
// the store recycles its own.
type Result struct {
	Done        sim.Event
	Err         error
	ServiceTime sim.Duration
}

// Call is one call of a Store's task forms, owned by the caller: the inputs
// it sets and the results the store sets before the call's continuation runs.
// QueueTransactionThen's Result is an input: the caller's, which the store
// completes.
// A thread keeps one and reuses it call after call, so a call allocates
// nothing of its own; it must not be reused while a call on it is under way.
type Call struct {
	// Txn is QueueTransactionThen's transaction and Result the caller's
	// Result it completes. Coll and Object name the object of the other
	// calls (ListThen's collection is Coll); Off and Length are ReadThen's
	// range (Length 0 = to EOF).
	Txn          *Transaction
	Result       *Result
	Coll, Object string
	Off, Length  uint64
	// Data is ReadThen's, Stat StatThen's, Exists ExistsThen's and Names
	// ListThen's answer; Err is ReadThen's, StatThen's and ListThen's error.
	Data   *wire.Bufferlist
	Stat   StatInfo
	Exists bool
	Names  []string
	Err    error
}

// Store is the pluggable object-store backend interface. Every call consumes
// virtual time. Method names follow the Ceph originals (queue_transactions,
// read, stat, exists, list).
//
// Each call has one implementation, its task form: th pays what the call
// charges to the calling thread, the results land in c, and next runs where
// the call returns. Each reports whether next was registered; if not, the
// call completed at once, its results are in c, and the caller goes on. A
// simulation process makes a call by awaiting its task form — the package
// functions Queue, Read, Stat, Exists and List — at the same events. The one
// proc method, QueueTransaction, stays for the callers that hold a Store and
// a proc, with a Result the store makes for the caller to own; a store whose
// submission is more than one charge implements it as Queue.
type Store interface {
	// QueueTransaction submits txn for asynchronous, atomic, durable
	// application. The returned Result, new and the caller's, has its Done
	// event fire at commit time.
	QueueTransaction(p *sim.Proc, txn *Transaction) *Result

	// QueueTransactionThen is QueueTransaction of c.Txn into the caller's
	// c.Result, which it completes.
	QueueTransactionThen(th *sim.Thread, c *Call, next sim.Task) bool
	// ReadThen reads c's range of its object into c.Data and c.Err.
	ReadThen(th *sim.Thread, c *Call, next sim.Task) bool
	// StatThen puts the object's metadata in c.Stat and c.Err.
	StatThen(th *sim.Thread, c *Call, next sim.Task) bool
	// ExistsThen puts whether the object exists in c.Exists.
	ExistsThen(th *sim.Thread, c *Call, next sim.Task) bool
	// ListThen puts the sorted object names of c.Coll in c.Names and c.Err.
	ListThen(th *sim.Thread, c *Call, next sim.Task) bool
}

// calls is a partition's free list of the Calls the package functions await
// (sim.Local, looked up per call: a package function has no construction to
// keep the pointer from), so a proc's call allocates nothing.
type calls struct{ sim.FreeList[Call] }

// start takes a Call from p's partition's free list and sets it to in.
func start(p *sim.Proc, in Call) *Call {
	c := sim.Local[calls](p.Env()).Get()
	*c = in
	return c
}

// await suspends p until the call on c is done, if the call registered p as
// its continuation, and returns c's answer, putting c back zeroed.
func await(p *sim.Proc, c *Call, registered bool) Call {
	if registered {
		p.Suspend()
	}
	r := *c
	sim.Local[calls](p.Env()).Put(c)
	return r
}

// Queue is st's QueueTransactionThen of txn into res, the caller's, awaited
// by p, on p's thread.
func Queue(p *sim.Proc, st Store, txn *Transaction, res *Result) {
	c := start(p, Call{Txn: txn, Result: res})
	await(p, c, st.QueueTransactionThen(p.Thread(), c, p))
}

// Read is st's ReadThen of length bytes at off of obj (length 0 = to EOF),
// awaited by p, on p's thread.
func Read(p *sim.Proc, st Store, coll, obj string, off, length uint64) (*wire.Bufferlist, error) {
	c := start(p, Call{Coll: coll, Object: obj, Off: off, Length: length})
	r := await(p, c, st.ReadThen(p.Thread(), c, p))
	return r.Data, r.Err
}

// Stat is st's StatThen awaited by p, on p's thread.
func Stat(p *sim.Proc, st Store, coll, obj string) (StatInfo, error) {
	c := start(p, Call{Coll: coll, Object: obj})
	r := await(p, c, st.StatThen(p.Thread(), c, p))
	return r.Stat, r.Err
}

// Exists is st's ExistsThen awaited by p, on p's thread.
func Exists(p *sim.Proc, st Store, coll, obj string) bool {
	c := start(p, Call{Coll: coll, Object: obj})
	return await(p, c, st.ExistsThen(p.Thread(), c, p)).Exists
}

// List is st's ListThen awaited by p, on p's thread.
func List(p *sim.Proc, st Store, coll string) ([]string, error) {
	c := start(p, Call{Coll: coll})
	r := await(p, c, st.ListThen(p.Thread(), c, p))
	return r.Names, r.Err
}
