package core

import "doceph/internal/wire"

// Batch frame: the coalesced data-plane unit shipped by the proxy batcher.
// One frame carries many complete small transactions; the host unpacks it
// and dispatches each op individually (seg 0 of 1 into the ordered commit
// queue), so OSD semantics are unchanged.
//
// Layout (little-endian):
//
//	u32 magic "DCBF"
//	u32 count            (1..maxBatchOps)
//	count x {
//	    u64 reqID
//	    u64 txnSeq
//	    u32 payloadLen
//	    payloadLen bytes  (serialized transaction, zero-copy segments)
//	}
//
// The same frame rides the DMA data plane (segTxnBatch) and the control
// plane (opBatchFallback). The decoder is the trust boundary of the
// host-side unpack: every field is bounds-checked, malformed input returns
// ErrFrame and never panics (fuzzed by FuzzDecodeBatchFrame).

// batchFrameMagic is "DCBF" read little-endian.
const batchFrameMagic uint32 = 0x46424344

// maxBatchOps bounds ops per frame; the decoder rejects larger counts
// before allocating.
const maxBatchOps = 1024

// batchEntryHeaderBytes is the fixed per-entry header size.
const batchEntryHeaderBytes = 20

// batchFrameOverhead is the worst-case frame framing overhead for n ops.
func batchFrameOverhead(n int) int64 {
	return 8 + int64(n)*batchEntryHeaderBytes
}

// oneOpFrameOverhead is batchFrameOverhead(1): the header bytes a one-op
// frame's record holds.
const oneOpFrameOverhead = 8 + batchEntryHeaderBytes

// batchEntry is one unpacked transaction of a batch frame. Its payload is a
// view of the frame over the entry's own slots, which hold a transaction
// frame's two segments (metadata and payload), so an entry must not move
// while its payload is in use.
type batchEntry struct {
	reqID   uint64
	txnSeq  uint64
	payload wire.Bufferlist
	slot    [2][]byte
}

// encodeBatchFrame frames the ops into out, the fixed headers written over
// hdr's array (batchFrameOverhead bytes fit without growing it); payloads
// ride as zero-copy segments spliced between the headers (Bufferlist-assembly
// mode). It returns out.
func encodeBatchFrame(ops []*pendingTxn, hdr []byte, out *wire.Bufferlist) *wire.Bufferlist {
	e := wire.EncoderBLOn(hdr, out)
	e.U32(batchFrameMagic)
	e.U32(uint32(len(ops)))
	for _, op := range ops {
		e.U64(op.reqID)
		e.U64(op.txnSeq)
		e.BufferlistField(&op.frame.Bufferlist)
	}
	return e.Bufferlist()
}

// decodeBatchFrame unpacks a batch frame into into's array, validating magic,
// count and every entry bound. An array too short for the frame is replaced
// by one of the frame's size before any entry is filled, so no entry moves
// once its payload points into its slots. Payloads are zero-copy views of bl's
// storage. On an error it leaves the array holding none of them.
func decodeBatchFrame(bl *wire.Bufferlist, into []batchEntry) ([]batchEntry, error) {
	if bl == nil {
		return nil, ErrFrame
	}
	d := wire.NewDecoderBL(bl)
	if d.U32() != batchFrameMagic {
		return nil, ErrFrame
	}
	n := int(d.U32())
	if d.Err() != nil || n == 0 || n > maxBatchOps {
		return nil, ErrFrame
	}
	if int64(d.Remaining()) < int64(n)*batchEntryHeaderBytes {
		return nil, ErrFrame
	}
	if cap(into) < n {
		into = make([]batchEntry, n)
	}
	out := into[:n]
	for i := range out {
		en := &out[i]
		en.reqID, en.txnSeq = d.U64(), d.U64()
		d.BufferlistFieldInto(en.payload.InitOn(en.slot[:]))
		if d.Err() != nil {
			clear(out)
			return nil, ErrFrame
		}
	}
	if d.Remaining() != 0 {
		clear(out)
		return nil, ErrFrame
	}
	return out, nil
}

// txnDoneEntry is one commit notification inside an opTxnDoneBatch RPC.
type txnDoneEntry struct {
	reqID     uint64
	code      uint16
	hostNanos int64
}

// encodeTxnDoneBatch frames coalesced host -> DPU commit notifications over
// buf's array (grown if it is short) and returns the frame.
func encodeTxnDoneBatch(entries []txnDoneEntry, buf []byte) []byte {
	e := wire.EncoderOn(buf)
	e.U32(uint32(len(entries)))
	for _, en := range entries {
		e.U64(en.reqID)
		e.U16(en.code)
		e.I64(en.hostNanos)
	}
	return e.Bytes()
}

// decodeTxnDoneBatch unpacks coalesced commit notifications into into's
// array (grown if it is short).
func decodeTxnDoneBatch(bl *wire.Bufferlist, into []txnDoneEntry) ([]txnDoneEntry, error) {
	d := wire.NewDecoderBL(bl)
	n := int(d.U32())
	if d.Err() != nil || n == 0 || n > maxBatchOps || d.Remaining() < n*18 {
		return nil, ErrFrame
	}
	out := into[:0]
	for i := 0; i < n; i++ {
		out = append(out, txnDoneEntry{reqID: d.U64(), code: d.U16(), hostNanos: d.I64()})
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return nil, ErrFrame
	}
	return out, nil
}
