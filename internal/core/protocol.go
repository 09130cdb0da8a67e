// Package core implements the paper's contribution: DoCeph's
// ProxyObjectStore (§3) — a transparent objstore.Store implementation that
// runs under the DPU-resident OSD and forwards every backend call to the
// host-resident BlueStore over two planes:
//
//   - Control plane: small metadata operations (stat, exists, list) as
//     lightweight RPCs over a persistent socket channel (package rpcchan).
//   - Data plane: bulk transaction payloads and read data over DOCA DMA
//     (package doca), segmented to the hardware's ~2 MB transfer limit and
//     pipelined so buffer staging overlaps in-flight transfers (§3.3,
//     Figure 4), with established memory regions reused instead of
//     renegotiated (MR cache).
//
// Robustness (§4): on a DMA error the completed segments are preserved and
// the remainder falls back to the RPC path; an atomic cooldown flag routes
// subsequent requests to RPC until a probe transfer proves the DMA path
// healthy again.
package core

import (
	"encoding/binary"
	"errors"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// RPC operation codes on the proxy <-> host channel.
const (
	opStat uint16 = iota + 1
	opExists
	opList
	// opSegFallback carries one transaction-payload segment over RPC (used
	// for whole requests during cooldown and for the remainder of a
	// partially-DMA'd request after an error).
	opSegFallback
	// opTxnDone notifies the DPU that a transaction committed on the host.
	opTxnDone
	// opReadFallback performs an entire read over RPC during cooldown.
	opReadFallback
	// opReadDone notifies the DPU that a read finished (error case or
	// zero-length; data segments arrive via DMA).
	opReadDone
	// opBatchFallback carries a whole batch frame (many coalesced small
	// transactions) over RPC in ONE call — the batched submit used during
	// cooldown and after a batch DMA error.
	opBatchFallback
	// opTxnDoneBatch notifies the DPU of many host commits in ONE RPC (the
	// batched complete).
	opTxnDoneBatch
)

// ErrFrame reports a malformed data-plane frame.
var ErrFrame = errFrame{}

type errFrame struct{}

func (errFrame) Error() string { return "core: malformed frame" }

// RPC error codes.
const (
	rcOK       uint16 = 0
	rcNotFound uint16 = 1
	rcNoColl   uint16 = 2
	rcIO       uint16 = 3
)

// errToCode maps a backend error, however wrapped, onto the protocol's codes.
func errToCode(err error) uint16 {
	switch {
	case err == nil:
		return rcOK
	case errors.Is(err, objstore.ErrNotFound):
		return rcNotFound
	case errors.Is(err, objstore.ErrNoCollection):
		return rcNoColl
	default:
		return rcIO
	}
}

func codeToErr(code uint16) error {
	switch code {
	case rcOK:
		return nil
	case rcNotFound:
		return objstore.ErrNotFound
	case rcNoColl:
		return objstore.ErrNoCollection
	default:
		return objstore.ErrProxyIO
	}
}

// segKind labels DMA transfers so each side's poller routes them.
type segKind uint8

const (
	segTxn      segKind = iota + 1 // DPU -> host: transaction payload
	segReadReq                     // DPU -> host: read request descriptor
	segReadData                    // host -> DPU: read response data
	segProbe                       // DPU -> host: cooldown health probe
	segTxnBatch                    // DPU -> host: batch frame of coalesced small transactions
)

// segHeader is the per-transfer tag: which request a segment belongs to and
// where it sits in that request. txnSeq is the per-proxy transaction
// sequence number used by the host to commit transactions in submission
// order even when the DMA and RPC paths race (per-PG ordering, which the
// baseline gets for free from its local ObjectStore, must survive the
// disaggregation).
type segHeader struct {
	kind   segKind
	reqID  uint64
	seg    int
	total  int
	txnSeq uint64
	// traceCtx rides the in-memory tag only (raw trace.SpanID); it is not
	// part of the wire header, so the RPC fallback path (encodeSegFallback)
	// drops it and fallback segments go untraced.
	traceCtx uint64
	// batchCtxs carries the per-op trace contexts of a segTxnBatch frame,
	// in frame entry order (in-memory only, like traceCtx).
	batchCtxs []uint64
}

// readReq is the read descriptor shipped to the host on the data plane.
type readReq struct {
	ReqID  uint64
	Coll   string
	Object string
	Off    uint64
	Length uint64
}

// encodeInto writes the descriptor over buf's storage and returns it; a
// descriptor longer than cap(buf) grows by append.
func (r *readReq) encodeInto(buf []byte) []byte {
	b := binary.LittleEndian.AppendUint64(buf[:0], r.ReqID)
	b = appendString(b, r.Coll)
	b = appendString(b, r.Object)
	b = binary.LittleEndian.AppendUint64(b, r.Off)
	return binary.LittleEndian.AppendUint64(b, r.Length)
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// decode reads a descriptor into r. Reads tend to repeat their collection, so
// it is decoded against the receiver's names and costs no allocation when it
// is one of them.
func (r *readReq) decode(bl *wire.Bufferlist, names *objstore.Names) error {
	d := wire.NewDecoderBL(bl)
	r.ReqID = d.U64()
	r.Coll = names.Coll(d)
	r.Object = d.String()
	r.Off = d.U64()
	r.Length = d.U64()
	return d.Err()
}

// readDescBytes is the descriptor storage a read carries inline: 32 bytes of
// fixed fields and length prefixes, and 32 of names — a PG collection
// ("pg.123") and a benchmark object ("benchmark_data_prepop_1234") fit.
const readDescBytes = 64

// readReqFrame is a read descriptor and the list that carries it, embedded in
// the record that sends it.
type readReqFrame struct {
	bl  wire.Inline1
	buf [readDescBytes]byte
}

func (f *readReqFrame) encode(r *readReq) *wire.Bufferlist {
	bl := f.bl.Init()
	bl.Append(r.encodeInto(f.buf[:]))
	return bl
}

// segFallbackHeaderBytes is the fixed fallback frame header size.
const segFallbackHeaderBytes = 28

// maxTxnSegments bounds the segment count a fallback frame may claim: the
// host sizes its reassembly table by it. 64Ki segments of 2 MiB is far beyond
// any transaction the OSD builds.
const maxTxnSegments = 1 << 16

// encodeSegFallback frames one RPC-fallback segment; the payload rides as
// zero-copy segments after the fixed header.
func encodeSegFallback(reqID, txnSeq uint64, seg, total int, payload *wire.Bufferlist) *wire.Bufferlist {
	e := wire.NewEncoder(segFallbackHeaderBytes)
	e.U64(reqID)
	e.U64(txnSeq)
	e.U32(uint32(seg))
	e.U32(uint32(total))
	e.U32(uint32(payload.Length()))
	bl := e.Bufferlist()
	bl.AppendBufferlist(payload)
	return bl
}

func decodeSegFallback(bl *wire.Bufferlist) (reqID, txnSeq uint64, seg, total int, payload *wire.Bufferlist, err error) {
	if bl.Length() < segFallbackHeaderBytes {
		return 0, 0, 0, 0, nil, ErrFrame
	}
	d := wire.NewDecoder(bl.Prefix(segFallbackHeaderBytes))
	reqID = d.U64()
	txnSeq = d.U64()
	seg = int(d.U32())
	total = int(d.U32())
	n := int(d.U32())
	if segFallbackHeaderBytes+n > bl.Length() || seg >= total || total > maxTxnSegments {
		return 0, 0, 0, 0, nil, ErrFrame
	}
	payload = bl.SubList(segFallbackHeaderBytes, n)
	return reqID, txnSeq, seg, total, payload, d.Err()
}

// txnDoneFrame is the host -> DPU commit notification and the list that
// carries it, embedded in the record that sends it.
type txnDoneFrame struct {
	bl  wire.Inline1
	buf [18]byte
}

func (f *txnDoneFrame) encode(reqID uint64, code uint16, hostWriteNanos int64) {
	binary.LittleEndian.PutUint64(f.buf[0:], reqID)
	binary.LittleEndian.PutUint16(f.buf[8:], code)
	binary.LittleEndian.PutUint64(f.buf[10:], uint64(hostWriteNanos))
	f.bl.Init().Append(f.buf[:])
}

func decodeTxnDone(bl *wire.Bufferlist) (reqID uint64, code uint16, hostWriteNanos int64, err error) {
	d := wire.NewDecoderBL(bl)
	reqID = d.U64()
	code = d.U16()
	hostWriteNanos = d.I64()
	return reqID, code, hostWriteNanos, d.Err()
}

// encodeReadDone frames the host -> DPU read-completion notification.
func encodeReadDone(reqID uint64, code uint16, totalSegs int) *wire.Bufferlist {
	e := wire.NewEncoder(16)
	e.U64(reqID)
	e.U16(code)
	e.U32(uint32(totalSegs))
	return e.Bufferlist()
}

func decodeReadDone(bl *wire.Bufferlist) (reqID uint64, code uint16, totalSegs int, err error) {
	d := wire.NewDecoderBL(bl)
	reqID = d.U64()
	code = d.U16()
	totalSegs = int(d.U32())
	return reqID, code, totalSegs, d.Err()
}

// encodeStatReq / decodeStatResp and friends: control-plane codecs.
func encodeObjRef(coll, obj string) *wire.Bufferlist {
	e := wire.NewEncoder(len(coll) + len(obj) + 8)
	e.String(coll)
	e.String(obj)
	return e.Bufferlist()
}

func decodeObjRef(bl *wire.Bufferlist) (coll, obj string, err error) {
	d := wire.NewDecoderBL(bl)
	coll = d.String()
	obj = d.String()
	return coll, obj, d.Err()
}

func encodeStatResp(st objstore.StatInfo) *wire.Bufferlist {
	e := wire.NewEncoder(24)
	e.U64(st.Size)
	e.U64(st.Version)
	e.I64(int64(st.Mtime))
	return e.Bufferlist()
}

func decodeStatResp(bl *wire.Bufferlist) (objstore.StatInfo, error) {
	d := wire.NewDecoderBL(bl)
	st := objstore.StatInfo{Size: d.U64(), Version: d.U64()}
	st.Mtime = sim.Time(d.I64())
	return st, d.Err()
}

func encodeList(names []string) *wire.Bufferlist {
	n := 8
	for _, s := range names {
		n += len(s) + 4
	}
	e := wire.NewEncoder(n)
	e.U32(uint32(len(names)))
	for _, s := range names {
		e.String(s)
	}
	return e.Bufferlist()
}

func decodeList(bl *wire.Bufferlist) ([]string, error) {
	d := wire.NewDecoderBL(bl)
	n := d.U32()
	if uint64(n)*4 > uint64(d.Remaining()) {
		// Every name carries at least its 4-byte length: refuse the count
		// before sizing anything by it.
		return nil, ErrFrame
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.String())
	}
	return out, d.Err()
}
