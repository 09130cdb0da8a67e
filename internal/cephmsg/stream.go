package cephmsg

import (
	"fmt"

	"doceph/internal/wire"
)

// Stream framing: objects larger than one DMA segment travel as a
// flow-controlled chunk stream instead of a single monolithic frame. The
// sender opens a stream carrying the op header (MStreamOpen with the bulk
// data stripped), pushes ChunkBytes-sized MStreamChunk frames under a
// credit window, and closes with MStreamEnd; the receiver returns one
// MStreamCredit per consumed chunk, so at most Window chunks are ever in
// flight and staging memory at every hop is bounded by Window×ChunkBytes,
// not by the object size. MStreamAbort tears a stream down mid-flight.
// The framing follows the ByteStream write/end contract (open → ordered
// writes → end), with Ceph-style credit-based flow control on top.

// MStreamOpen starts a chunked transfer. Inner is the op the stream
// carries (MOSDOp or MRepOp, write family) with its Data field stripped;
// the receiver reattaches the reassembled payload, or feeds chunks to an
// incremental sink. Window is the sender's credit window: the number of
// chunks it will put in flight before blocking on returned credits.
type MStreamOpen struct {
	StreamID   uint64
	Total      int64
	ChunkBytes int64
	Window     uint32
	// Lane is the ordering key of Inner, echoed on every frame of the
	// stream so all of them ride the same transport lane (per-stream FIFO).
	Lane  uint64
	Inner Message
	// TraceCtx carries the trace span context out-of-band (see MOSDOp).
	TraceCtx uint64
}

// MsgType implements Message.
func (m *MStreamOpen) MsgType() Type { return TStreamOpen }

// EncodePayload implements Message. The inner op is embedded as a nested
// tag+payload frame, decoded by the same dispatch the outer frame uses.
func (m *MStreamOpen) EncodePayload(e *wire.Encoder) {
	e.U64(m.StreamID)
	e.I64(m.Total)
	e.I64(m.ChunkBytes)
	e.U32(m.Window)
	e.U64(m.Lane)
	e.U16(uint16(m.Inner.MsgType()))
	m.Inner.EncodePayload(e)
}

// PayloadBytes implements Message.
func (m *MStreamOpen) PayloadBytes() int64 { return 38 + m.Inner.PayloadBytes() }

// MStreamChunk carries one ordered piece of a stream's payload. Seq starts
// at 0 and increments by 1; each chunk consumes one credit.
type MStreamChunk struct {
	StreamID uint64
	Seq      uint32
	Lane     uint64
	Data     *wire.Bufferlist
	// TraceCtx carries the trace span context out-of-band (see MOSDOp).
	TraceCtx uint64
}

// MsgType implements Message.
func (m *MStreamChunk) MsgType() Type { return TStreamChunk }

// EncodePayload implements Message.
func (m *MStreamChunk) EncodePayload(e *wire.Encoder) {
	e.U64(m.StreamID)
	e.U32(m.Seq)
	e.U64(m.Lane)
	e.BufferlistField(data(m.Data))
}

// PayloadBytes implements Message.
func (m *MStreamChunk) PayloadBytes() int64 {
	return 24 + int64(data(m.Data).Length())
}

// MStreamEnd closes a stream; Chunks is the total chunk count, checked
// against what arrived.
type MStreamEnd struct {
	StreamID uint64
	Chunks   uint32
	Lane     uint64
}

// MsgType implements Message.
func (m *MStreamEnd) MsgType() Type { return TStreamEnd }

// EncodePayload implements Message.
func (m *MStreamEnd) EncodePayload(e *wire.Encoder) {
	e.U64(m.StreamID)
	e.U32(m.Chunks)
	e.U64(m.Lane)
}

// PayloadBytes implements Message.
func (m *MStreamEnd) PayloadBytes() int64 { return 20 }

// MStreamCredit returns consumed-chunk credits to the sender (receiver →
// sender, the reverse direction of the data).
type MStreamCredit struct {
	StreamID uint64
	Credits  uint32
	Lane     uint64
}

// MsgType implements Message.
func (m *MStreamCredit) MsgType() Type { return TStreamCredit }

// EncodePayload implements Message.
func (m *MStreamCredit) EncodePayload(e *wire.Encoder) {
	e.U64(m.StreamID)
	e.U32(m.Credits)
	e.U64(m.Lane)
}

// PayloadBytes implements Message.
func (m *MStreamCredit) PayloadBytes() int64 { return 20 }

// MStreamAbort tears down a stream mid-flight (sender gave up); the
// receiver discards partial state and stops expecting chunks.
type MStreamAbort struct {
	StreamID uint64
	Lane     uint64
}

// MsgType implements Message.
func (m *MStreamAbort) MsgType() Type { return TStreamAbort }

// EncodePayload implements Message.
func (m *MStreamAbort) EncodePayload(e *wire.Encoder) {
	e.U64(m.StreamID)
	e.U64(m.Lane)
}

// PayloadBytes implements Message.
func (m *MStreamAbort) PayloadBytes() int64 { return 16 }

// streamInnerOK reports whether m may ride inside an MStreamOpen: only the
// write family is streamable (reads/replies carry their data downstream
// and are served whole; everything else is control traffic).
func streamInnerOK(m Message) bool {
	switch m := m.(type) {
	case *MOSDOp:
		return m.Op == OpWrite
	case *MRepOp:
		return m.Op == OpWrite
	}
	return false
}

// withData returns a shallow copy of a streamable op with data as its
// payload; nil for any other message.
func withData(m Message, data *wire.Bufferlist) Message {
	switch m := m.(type) {
	case *MOSDOp:
		cp := *m
		cp.Data = data
		return &cp
	case *MRepOp:
		cp := *m
		cp.Data = data
		return &cp
	}
	return nil
}

// StreamSplit is the sender's inverse of Assembler.End: for a streamable op
// whose payload exceeds chunkBytes it returns a shallow copy with the payload
// stripped (the stream's inner op) plus the payload to send as chunks.
func StreamSplit(m Message, chunkBytes int64) (inner Message, payload *wire.Bufferlist, ok bool) {
	payload = payloadOf(m)
	if !streamInnerOK(m) || payload == nil || int64(payload.Length()) <= chunkBytes {
		return nil, nil, false
	}
	return withData(m, nil), payload, true
}

// decodeStreamOpen parses an MStreamOpen body, including the nested inner
// op, enforcing the strict-decoder rules: the inner message must be a
// streamable write op, must not itself be a stream frame (depth guard) and
// must not smuggle an inline payload past the chunk accounting.
func decodeStreamOpen(d *wire.Decoder, depth int) (Message, error) {
	m := &MStreamOpen{
		StreamID: d.U64(), Total: d.I64(), ChunkBytes: d.I64(),
		Window: d.U32(), Lane: d.U64(),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	inner, err := decodeMsg(d, depth+1)
	if err != nil {
		return nil, err
	}
	if !streamInnerOK(inner) {
		return nil, fmt.Errorf("cephmsg: stream open with non-streamable inner %v",
			inner.MsgType())
	}
	if data(payloadOf(inner)).Length() != 0 {
		return nil, fmt.Errorf("cephmsg: stream open carries inline payload")
	}
	m.Inner = inner
	return m, nil
}

// Assembler is the receive-side stream protocol state machine: it
// validates open/chunk/end/abort/credit sequences (ordering, size bounds,
// credit-window conformance) and optionally reassembles the payload. It is
// pure — no simulator dependencies — and never panics on bad input; every
// violation is returned as an error, which makes it directly fuzzable
// (FuzzStreamAssembler) while the messenger treats any error as a broken
// transport and fails loudly.
type Assembler struct {
	// MaxStreams bounds concurrently open streams per peer (resource
	// exhaustion guard); NewAssembler sets the default.
	MaxStreams int
	// streams holds each open stream's state by value: the map's own storage,
	// not an allocation per stream.
	streams map[uint64]streamState
}

type streamState struct {
	open       *MStreamOpen
	accumulate bool
	nextSeq    uint32
	received   int64
	// inWindow counts chunks received but not yet credited back; it may
	// never exceed the sender's declared window.
	inWindow uint32
	data     *wire.Bufferlist
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{MaxStreams: 256, streams: make(map[uint64]streamState)}
}

// Active returns the number of open streams.
func (a *Assembler) Active() int { return len(a.streams) }

// Open registers a new stream. With accumulate set the assembler gathers
// chunk data and End returns the reconstructed inner op; without it the
// caller consumes chunks incrementally and End returns the bare inner.
func (a *Assembler) Open(m *MStreamOpen, accumulate bool) error {
	if m.ChunkBytes <= 0 || m.Total < 0 || m.Window == 0 {
		return fmt.Errorf("cephmsg: stream %d: bad open (total %d chunk %d window %d)",
			m.StreamID, m.Total, m.ChunkBytes, m.Window)
	}
	if m.Inner == nil || !streamInnerOK(m.Inner) {
		return fmt.Errorf("cephmsg: stream %d: non-streamable inner", m.StreamID)
	}
	if data(payloadOf(m.Inner)).Length() != 0 {
		return fmt.Errorf("cephmsg: stream %d: open carries inline payload", m.StreamID)
	}
	if _, ok := a.streams[m.StreamID]; ok {
		return fmt.Errorf("cephmsg: stream %d: duplicate open", m.StreamID)
	}
	if len(a.streams) >= a.MaxStreams {
		return fmt.Errorf("cephmsg: stream %d: too many open streams (%d)",
			m.StreamID, len(a.streams))
	}
	st := streamState{open: m, accumulate: accumulate}
	if accumulate {
		st.data = &wire.Bufferlist{}
	}
	a.streams[m.StreamID] = st
	return nil
}

// Chunk validates one arriving chunk and returns its data (shared, not
// copied). Order, size and credit-window violations are errors.
func (a *Assembler) Chunk(m *MStreamChunk) (*wire.Bufferlist, error) {
	st, ok := a.streams[m.StreamID]
	if !ok {
		return nil, fmt.Errorf("cephmsg: stream %d: chunk for unopened stream", m.StreamID)
	}
	if m.Seq != st.nextSeq {
		return nil, fmt.Errorf("cephmsg: stream %d: chunk %d out of order (want %d)",
			m.StreamID, m.Seq, st.nextSeq)
	}
	if st.inWindow >= st.open.Window {
		return nil, fmt.Errorf("cephmsg: stream %d: credit violation (window %d exhausted)",
			m.StreamID, st.open.Window)
	}
	n := int64(data(m.Data).Length())
	if n <= 0 || n > st.open.ChunkBytes {
		return nil, fmt.Errorf("cephmsg: stream %d: chunk %d bad size %d (max %d)",
			m.StreamID, m.Seq, n, st.open.ChunkBytes)
	}
	if st.received+n > st.open.Total {
		return nil, fmt.Errorf("cephmsg: stream %d: overrun (%d+%d > total %d)",
			m.StreamID, st.received, n, st.open.Total)
	}
	st.nextSeq++
	st.inWindow++
	st.received += n
	if st.accumulate {
		st.data.AppendBufferlist(m.Data)
	}
	a.streams[m.StreamID] = st
	return m.Data, nil
}

// Credit records n credits returned to the sender. Crediting a stream that
// already ended is a no-op (the End raced the consumer's last credit);
// crediting more than is outstanding on an open stream is an error.
func (a *Assembler) Credit(id uint64, n uint32) error {
	st, ok := a.streams[id]
	if !ok {
		return nil
	}
	if n > st.inWindow {
		return fmt.Errorf("cephmsg: stream %d: over-credit (%d > %d outstanding)",
			id, n, st.inWindow)
	}
	st.inWindow -= n
	a.streams[id] = st
	return nil
}

// End closes a stream, checking the totals, and returns the inner op: with
// accumulate a shallow copy with the reassembled payload attached,
// otherwise the bare inner as opened.
func (a *Assembler) End(m *MStreamEnd) (Message, error) {
	st, ok := a.streams[m.StreamID]
	if !ok {
		return nil, fmt.Errorf("cephmsg: stream %d: end for unopened stream", m.StreamID)
	}
	if m.Chunks != st.nextSeq {
		return nil, fmt.Errorf("cephmsg: stream %d: end after %d chunks (sender says %d)",
			m.StreamID, st.nextSeq, m.Chunks)
	}
	if st.received != st.open.Total {
		return nil, fmt.Errorf("cephmsg: stream %d: end with %d of %d bytes",
			m.StreamID, st.received, st.open.Total)
	}
	delete(a.streams, m.StreamID)
	if !st.accumulate {
		return st.open.Inner, nil
	}
	if whole := withData(st.open.Inner, st.data); whole != nil {
		return whole, nil
	}
	return nil, fmt.Errorf("cephmsg: stream %d: non-streamable inner", m.StreamID)
}

// Abort drops a stream's partial state, returning its inner op (for an
// error reply) and whether the stream was open.
func (a *Assembler) Abort(id uint64) (Message, bool) {
	st, ok := a.streams[id]
	if !ok {
		return nil, false
	}
	delete(a.streams, id)
	return st.open.Inner, true
}
