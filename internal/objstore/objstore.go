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

// Transaction op codes.
const (
	OpTouch OpCode = iota + 1
	OpWrite
	OpZero
	OpTruncate
	OpRemove
	OpSetAttr
	OpMkColl
	OpRmColl
)

func (c OpCode) String() string {
	switch c {
	case OpTouch:
		return "touch"
	case OpWrite:
		return "write"
	case OpZero:
		return "zero"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	case OpSetAttr:
		return "setattr"
	case OpMkColl:
		return "mkcoll"
	case OpRmColl:
		return "rmcoll"
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
	AttrName   string
	AttrValue  []byte
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

// Touch ensures obj exists in coll.
func (t *Transaction) Touch(coll, obj string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpTouch, Collection: coll, Object: obj})
	return t
}

// Write writes data at offset off of obj in coll.
func (t *Transaction) Write(coll, obj string, off uint64, data *wire.Bufferlist) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpWrite, Collection: coll, Object: obj,
		Offset: off, Length: uint64(data.Length()), Data: data})
	return t
}

// Zero zeroes length bytes at offset off of obj.
func (t *Transaction) Zero(coll, obj string, off, length uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpZero, Collection: coll, Object: obj,
		Offset: off, Length: length})
	return t
}

// Truncate sets obj's size.
func (t *Transaction) Truncate(coll, obj string, size uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpTruncate, Collection: coll, Object: obj, Offset: size})
	return t
}

// Remove deletes obj from coll.
func (t *Transaction) Remove(coll, obj string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpRemove, Collection: coll, Object: obj})
	return t
}

// SetAttr sets a named attribute on obj.
func (t *Transaction) SetAttr(coll, obj, name string, value []byte) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpSetAttr, Collection: coll, Object: obj,
		AttrName: name, AttrValue: value})
	return t
}

// MkColl creates a collection.
func (t *Transaction) MkColl(coll string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpMkColl, Collection: coll})
	return t
}

// RmColl removes an (empty) collection.
func (t *Transaction) RmColl(coll string) *Transaction {
	t.Ops = append(t.Ops, Op{Code: OpRmColl, Collection: coll})
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

// Names is the collection and object of the last op a decoder read. A
// receiver sees one collection over and over and one object for a run of
// stream chunks, so the decoder shares equal names instead of allocating them.
type Names struct{ Collection, Object string }

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
			Collection: d.StringLike(last.Collection),
			Object:     d.StringLike(last.Object),
			Offset:     d.U64(),
			Length:     d.U64(),
		}
		last.Collection, last.Object = op.Collection, op.Object
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
// is handled by pointer only.
type Result struct {
	Done        sim.Event
	Err         error
	ServiceTime sim.Duration
}

// Store is the pluggable object-store backend interface. Every method takes
// the calling simulation process because each consumes virtual time. Method
// names follow the Ceph originals (queue_transactions, stat, exists, ...).
type Store interface {
	// QueueTransaction submits txn for asynchronous, atomic, durable
	// application. The returned Result's Done event fires at commit time.
	QueueTransaction(p *sim.Proc, txn *Transaction) *Result
	// Read returns length bytes at offset off of obj (length 0 = to EOF).
	Read(p *sim.Proc, coll, obj string, off, length uint64) (*wire.Bufferlist, error)
	// Stat returns object metadata.
	Stat(p *sim.Proc, coll, obj string) (StatInfo, error)
	// Exists reports whether obj exists in coll.
	Exists(p *sim.Proc, coll, obj string) bool
	// List returns the sorted object names in coll.
	List(p *sim.Proc, coll string) ([]string, error)
}
