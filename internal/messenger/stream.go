// Streaming transfer mode: large write payloads travel as flow-controlled
// chunk streams (cephmsg stream framing) instead of one monolithic frame.
// The send side is transparent — Send intercepts streamable messages,
// opens a stream and pumps chunks from a spawned process under a credit
// window — and the receive side always understands stream frames, so an
// enabled sender interoperates with any receiver (asymmetric configs work,
// like lanes). A receiver either reassembles the payload and dispatches
// the reconstructed op (default), or, when the endpoint registered a
// StreamSink that accepts the stream, hands chunks to an InStream for
// incremental consumption with consumer-paced credit returns — the path
// the OSD uses to start replica fan-out and commit per chunk.

package messenger

import (
	"fmt"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// StreamConfig tunes the streaming transfer mode. Off by default: with
// Enable false Send never streams and no state is allocated, so existing
// runs stay bit-identical.
//
// A stream costs each side of a hop one record, not one per chunk: the
// sender's OutStream holds the credit window, the open and end frames and a
// table of chunk frames sized at open, and the receiver's InStream lives
// inside its sink's record (the OSD's holds one transaction, result and
// credit frame per chunk). On the benchmark's stream-16M-doceph that took a
// 16 MiB replicated write from 251 to 165 allocations at seed 42 (DESIGN.md
// §4.1 has the sites).
type StreamConfig struct {
	// Enable turns transparent streaming of large writes on.
	Enable bool
	// ChunkBytes is the chunk size; writes with payloads strictly larger
	// than this are streamed. Defaults to 2 MiB — the DOCA engine's
	// per-transfer segment limit. A chunk crosses PCIe with its ≈ 130-byte
	// transaction frame, so it DMAs as two segments, 2 MiB and the tail:
	// about twice the monolithic path's transfers (figures: ROADMAP item 2).
	ChunkBytes int64
	// Window is the credit window: chunks in flight before the sender
	// blocks on returned credits. Staging memory at every hop is bounded
	// by Window×ChunkBytes. Defaults to 4.
	Window int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if !c.Enable {
		return c
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 2 << 20
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	return c
}

// StreamSink consumes incoming streams incrementally. OpenStream runs on a
// msgr-worker thread and must not block: to accept, it returns an InStream —
// the zero value, typically inside the sink's own record of the stream, which
// the messenger fills in once OpenStream returns — and spawns a consumer that
// drains it (crediting as it goes); nil falls back to messenger-side
// reassembly.
type StreamSink interface {
	OpenStream(src string, open *cephmsg.MStreamOpen) *InStream
}

// SetStreamSink installs the incremental stream consumer (nil reverts to
// reassembly for all incoming streams).
func (m *Messenger) SetStreamSink(s StreamSink) { m.streamSink = s }

// streamSend is the transparent interception path: open a stream for inner
// and pump data through it from a dedicated process (Send must not block,
// but chunk writes wait on credits).
func (m *Messenger) streamSend(dst string, inner cephmsg.Message, data *wire.Bufferlist) {
	out := m.OpenStream(dst, inner, int64(data.Length()))
	out.data = data
	if m.pumpBody == nil {
		m.pumpBody = m.pump
	}
	m.env.SpawnID("stream-pump:", out.open.StreamID, m.pumpBody)
}

// pump is the body of every stream-pump proc: write the data of the stream
// its id names, then close it. It charges no CPU — the chunks' messenger work
// is the workers' — so it runs with no thread.
func (m *Messenger) pump(p *sim.Proc) {
	out := m.outStreams[p.ID()]
	data := out.data
	out.data = nil
	out.Write(p, data)
	out.Close(p)
}

// OpenStream starts an outbound stream to dst carrying inner (a write-
// family MOSDOp/MRepOp with Data stripped) totalling total payload bytes.
// The caller feeds it with Write and finishes with Close (or Abort); Write
// blocks on flow-control credits, so call it from a process that may wait.
func (m *Messenger) OpenStream(dst string, inner cephmsg.Message, total int64) *OutStream {
	cfg := m.cfg.Stream
	if cfg.ChunkBytes <= 0 || cfg.Window <= 0 {
		// Receiver-initiated fan-out on an endpoint without explicit
		// stream config (e.g. an OSD forwarding an incoming stream):
		// use the defaults.
		cfg = StreamConfig{Enable: true}.withDefaults()
	}
	lane, _ := cephmsg.LaneKey(inner)
	m.nextStreamID++
	out := &OutStream{ms: m, dst: dst, chunkBytes: cfg.ChunkBytes,
		chunks: make([]cephmsg.MStreamChunk, 0, (total+cfg.ChunkBytes-1)/cfg.ChunkBytes)}
	out.credits.Init(m.env, cfg.Window)
	out.open = cephmsg.MStreamOpen{
		StreamID: m.nextStreamID, Total: total, ChunkBytes: cfg.ChunkBytes,
		Window: uint32(cfg.Window), Lane: lane, Inner: inner, TraceCtx: cephmsg.TraceContext(inner),
	}
	if m.outStreams == nil {
		m.outStreams = make(map[uint64]*OutStream)
	}
	m.outStreams[out.open.StreamID] = out
	m.stats.StreamsSent++
	m.Send(dst, &out.open)
	return out
}

// OutStream is the send half of one stream, in one record with its credit
// window and its frames. chunks is the chunk frames' table, sized at open for
// the stream's total; a stream cut finer than that grows it by append, which
// leaves the frames already sent where they are.
type OutStream struct {
	ms         *Messenger
	dst        string
	chunkBytes int64
	credits    sim.Semaphore
	open       cephmsg.MStreamOpen
	end        cephmsg.MStreamEnd
	chunks     []cephmsg.MStreamChunk
	// data is what the pump of a transparently streamed message writes.
	data *wire.Bufferlist
}

// Write splits data into chunk-sized pieces and sends each under the
// credit window, blocking while the window is exhausted. The pieces are
// zero-copy views of data; data that fits one chunk (a forwarded chunk) is
// sent as it is.
func (o *OutStream) Write(p *sim.Proc, data *wire.Bufferlist) {
	total := data.Length()
	for off := 0; off < total; {
		n := min(int(o.chunkBytes), total-off)
		chunk := data
		if n < total {
			chunk = data.SubList(off, n)
		}
		o.writeChunk(p, chunk)
		off += n
	}
}

func (o *OutStream) writeChunk(p *sim.Proc, chunk *wire.Bufferlist) {
	ctx := o.open.TraceCtx
	var sp trace.SpanID
	if o.ms.tr.Enabled() && ctx != 0 {
		// stream.window: how long this chunk waited for a flow-control
		// credit before entering the messenger (backpressure residency).
		sp = o.ms.tr.Start(trace.SpanID(ctx), 0, trace.StageStreamWindow, o.dst)
	}
	start := p.Now()
	o.credits.Acquire(p, 1)
	if sp != 0 {
		o.ms.tr.AddQueueWait(sp, p.Now().Sub(start))
		o.ms.tr.AddBytes(sp, int64(chunk.Length()))
		o.ms.tr.Finish(sp)
	}
	o.ms.stats.StreamChunksSent++
	o.chunks = append(o.chunks, cephmsg.MStreamChunk{
		StreamID: o.open.StreamID, Seq: uint32(len(o.chunks)), Lane: o.open.Lane, Data: chunk, TraceCtx: ctx,
	})
	o.ms.Send(o.dst, &o.chunks[len(o.chunks)-1])
}

// Close completes the stream. Late credits for in-flight chunks are
// dropped once the stream is deregistered (nothing waits on them).
func (o *OutStream) Close(p *sim.Proc) {
	delete(o.ms.outStreams, o.open.StreamID)
	o.end = cephmsg.MStreamEnd{StreamID: o.open.StreamID, Chunks: uint32(len(o.chunks)), Lane: o.open.Lane}
	o.ms.Send(o.dst, &o.end)
}

// Abort tears the stream down mid-flight; the receiver discards partial
// state.
func (o *OutStream) Abort(p *sim.Proc) {
	delete(o.ms.outStreams, o.open.StreamID)
	o.ms.stats.StreamAborts++
	o.ms.Send(o.dst, &cephmsg.MStreamAbort{StreamID: o.open.StreamID, Lane: o.open.Lane})
}

// inKey identifies an incoming stream: ids are only unique per sender.
type inKey struct {
	src string
	id  uint64
}

// streamItem is one delivery on an InStream's queue.
type streamItem struct {
	data    *wire.Bufferlist
	end     bool
	aborted bool
}

// InStream is the receive half of one stream in incremental (sink) mode.
// The consumer loops on Next and returns flow-control credits with Credit
// as it durably consumes chunks. It lives inside the sink's record of the
// stream, its queue by value.
type InStream struct {
	ms   *Messenger
	src  string
	open *cephmsg.MStreamOpen
	q    sim.Queue[streamItem]
}

// Src returns the sending entity.
func (in *InStream) Src() string { return in.src }

// Open returns the stream's open frame (inner op, totals, window).
func (in *InStream) Open() *cephmsg.MStreamOpen { return in.open }

// Next blocks for the next chunk. done reports a clean end (data nil);
// aborted reports a mid-flight teardown (data nil, partial state dropped).
func (in *InStream) Next(p *sim.Proc) (data *wire.Bufferlist, done, aborted bool) {
	it := in.q.Pop(p)
	return it.data, it.end, it.aborted
}

// Credit returns one flow-control credit to the sender, allowing it to put
// one more chunk in flight, and sends it as frame — storage the caller owns
// and gives no other credit (the consumer's record has one per chunk). Call
// it when a chunk's memory/processing has actually been retired — that is
// what bounds staging to the window.
func (in *InStream) Credit(frame *cephmsg.MStreamCredit) {
	if err := in.ms.asmFor(in.src).Credit(in.open.StreamID, 1); err != nil {
		panic(fmt.Sprintf("messenger %s: %v", in.ms.name, err))
	}
	*frame = cephmsg.MStreamCredit{StreamID: in.open.StreamID, Credits: 1, Lane: in.open.Lane}
	in.ms.Send(in.src, frame)
}

// asmFor returns the per-peer stream protocol state machine.
func (m *Messenger) asmFor(src string) *cephmsg.Assembler {
	if m.inAsm == nil {
		m.inAsm = make(map[string]*cephmsg.Assembler)
	}
	a, ok := m.inAsm[src]
	if !ok {
		a = cephmsg.NewAssembler()
		m.inAsm[src] = a
	}
	return a
}

// handleStream intercepts stream frames on the receive path (always
// active, regardless of local Stream.Enable). It reports whether msg was
// consumed. Protocol violations panic: peers are trusted in-simulation, so
// a violation is a transport bug, mirroring the per-lane seq invariant.
func (m *Messenger) handleStream(p *sim.Proc, src string, msg cephmsg.Message) bool {
	switch sm := msg.(type) {
	case *cephmsg.MStreamOpen:
		m.handleStreamOpen(sm, src)
	case *cephmsg.MStreamChunk:
		m.handleStreamChunk(sm, src)
	case *cephmsg.MStreamEnd:
		m.handleStreamEnd(p, sm, src)
	case *cephmsg.MStreamAbort:
		m.handleStreamAbort(sm, src)
	case *cephmsg.MStreamCredit:
		if out, ok := m.outStreams[sm.StreamID]; ok {
			out.credits.Release(int(sm.Credits))
		}
	default:
		return false
	}
	return true
}

func (m *Messenger) handleStreamOpen(sm *cephmsg.MStreamOpen, src string) {
	m.stats.StreamsRecv++
	var in *InStream
	if m.streamSink != nil {
		in = m.streamSink.OpenStream(src, sm)
	}
	if err := m.asmFor(src).Open(sm, in == nil); err != nil {
		panic(fmt.Sprintf("messenger %s: %v", m.name, err))
	}
	if in != nil {
		in.ms, in.src, in.open = m, src, sm
		in.q.Init(m.env)
		if m.inStreams == nil {
			m.inStreams = make(map[inKey]*InStream)
		}
		m.inStreams[inKey{src, sm.StreamID}] = in
	}
}

func (m *Messenger) handleStreamChunk(sm *cephmsg.MStreamChunk, src string) {
	data, err := m.asmFor(src).Chunk(sm)
	if err != nil {
		panic(fmt.Sprintf("messenger %s: %v", m.name, err))
	}
	m.stats.StreamChunksRecv++
	if in, ok := m.inStreams[inKey{src, sm.StreamID}]; ok {
		in.q.Push(streamItem{data: data})
		return
	}
	// Reassembly mode buffers the whole payload anyway, so credit
	// immediately: flow control is consumer-paced only in sink mode.
	if err := m.asmFor(src).Credit(sm.StreamID, 1); err != nil {
		panic(fmt.Sprintf("messenger %s: %v", m.name, err))
	}
	m.Send(src, &cephmsg.MStreamCredit{StreamID: sm.StreamID, Credits: 1, Lane: sm.Lane})
}

func (m *Messenger) handleStreamEnd(p *sim.Proc, sm *cephmsg.MStreamEnd, src string) {
	inner, err := m.asmFor(src).End(sm)
	if err != nil {
		panic(fmt.Sprintf("messenger %s: %v", m.name, err))
	}
	if in, ok := m.inStreams[inKey{src, sm.StreamID}]; ok {
		delete(m.inStreams, inKey{src, sm.StreamID})
		in.q.Push(streamItem{end: true})
		return
	}
	// Reassembly mode: dispatch the reconstructed op as if it had arrived
	// whole (its per-byte costs were paid chunk by chunk).
	if m.dispatch == nil {
		panic(fmt.Sprintf("messenger %s: reassembled stream from %s with no dispatcher", m.name, src))
	}
	m.dispatch(p, src, inner)
}

func (m *Messenger) handleStreamAbort(sm *cephmsg.MStreamAbort, src string) {
	if _, ok := m.asmFor(src).Abort(sm.StreamID); !ok {
		return
	}
	if in, ok := m.inStreams[inKey{src, sm.StreamID}]; ok {
		delete(m.inStreams, inKey{src, sm.StreamID})
		in.q.Push(streamItem{aborted: true})
	}
	// Reassembly mode: partial state is simply discarded; the sender owns
	// surfacing the failure (client retry path).
}
