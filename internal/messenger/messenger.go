// Package messenger models Ceph's AsyncMessenger: per-entity messengers
// whose msgr-worker threads run epoll-style event loops, encode/decode and
// checksum messages, and pay the TCP/IP kernel-stack costs (per-segment
// syscalls, user/kernel copies, context switches) that the paper measures
// as >80% of Ceph's CPU time (§2.3, Figure 5). Wire occupancy is modelled by
// a sim.Fabric; per-connection FIFO ordering is preserved by a dedicated
// wire process per direction.
package messenger

import (
	"fmt"
	"sort"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// ThreadCat is the accounting category for messenger worker threads,
// matching the paper's "msgr-worker-" perf pattern.
const ThreadCat = "msgr-worker"

// EnvelopeBytes approximates the msgr2 frame header + footer size.
const EnvelopeBytes = 64

// Config carries the messenger tunables and CPU cost model. Zero values are
// replaced by defaults in New.
type Config struct {
	// Workers is the number of msgr-worker event-loop threads. When Lanes
	// exceeds it, the pool grows to Lanes so every lane of a connection can
	// map to a distinct worker.
	Workers int
	// Lanes is the number of parallel ordered lanes per connection (the
	// multi-QP transport of DPU-offloaded messengers: LineFS/Xenic-style
	// designs open several queue pairs per peer so independent streams
	// don't serialize behind one event loop). Messages hash to a lane by
	// their ordering key — object name for client ops, PG id for
	// replication — so per-object and per-PG FIFO survive; traffic with no
	// key (maps, boots, heartbeats) stays on lane 0, which preserves the
	// peer-wide order those protocols assume. 1 (the default) is a single
	// ordered connection, byte-identical to the pre-lane messenger.
	Lanes int
	// TxCopyCyclesPerByte / RxCopyCyclesPerByte model user/kernel buffer
	// copies and TCP/IP stack traversal per byte.
	TxCopyCyclesPerByte float64
	RxCopyCyclesPerByte float64
	// CRCCyclesPerByte models message checksumming (charged on both ends).
	CRCCyclesPerByte float64
	// EncodeCycles / DecodeCycles / DispatchCycles are per-message costs.
	EncodeCycles   int64
	DecodeCycles   int64
	DispatchCycles int64
	// WireEncode really serializes and re-parses every message (integrity
	// at the cost of wall-clock speed); benchmarks leave it off and pass
	// message pointers with size accounting only.
	WireEncode bool
	// ReconnectBackoff is the initial delay before a session reset retries
	// a frame the fabric dropped; each consecutive loss doubles it up to
	// reconnectBackoffMax (capped exponential backoff, Ceph's msgr2
	// reconnect behaviour).
	ReconnectBackoff sim.Duration
	// Stream enables flow-controlled chunked transfer of large write
	// payloads (see stream.go). Off by default.
	Stream StreamConfig
}

// DefaultConfig returns the cost model used by the experiments (calibration
// rationale in EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		Workers:             3,
		TxCopyCyclesPerByte: 1.05,
		RxCopyCyclesPerByte: 1.05,
		CRCCyclesPerByte:    0.25,
		EncodeCycles:        120_000,
		DecodeCycles:        100_000,
		DispatchCycles:      30_000,
		ReconnectBackoff:    10 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.Workers < c.Lanes {
		c.Workers = c.Lanes
	}
	if c.TxCopyCyclesPerByte == 0 {
		c.TxCopyCyclesPerByte = d.TxCopyCyclesPerByte
	}
	if c.RxCopyCyclesPerByte == 0 {
		c.RxCopyCyclesPerByte = d.RxCopyCyclesPerByte
	}
	if c.CRCCyclesPerByte == 0 {
		c.CRCCyclesPerByte = d.CRCCyclesPerByte
	}
	if c.EncodeCycles == 0 {
		c.EncodeCycles = d.EncodeCycles
	}
	if c.DecodeCycles == 0 {
		c.DecodeCycles = d.DecodeCycles
	}
	if c.DispatchCycles == 0 {
		c.DispatchCycles = d.DispatchCycles
	}
	if c.ReconnectBackoff == 0 {
		c.ReconnectBackoff = d.ReconnectBackoff
	}
	c.Stream = c.Stream.withDefaults()
	return c
}

// Stats counts a messenger's traffic.
type Stats struct {
	Sent      int64
	Received  int64
	BytesSent int64
	BytesRecv int64
	// SessionResets counts reconnects after the fabric dropped a frame;
	// Redeliveries counts frames re-sent by those resets (each dropped
	// frame is redelivered exactly once per successful reset).
	SessionResets int64
	Redeliveries  int64
	// Streaming counters: streams opened by this endpoint (sender side),
	// streams arriving at it, chunks moved each way, and aborts issued.
	StreamsSent      int64
	StreamsRecv      int64
	StreamChunksSent int64
	StreamChunksRecv int64
	StreamAborts     int64
}

// Dispatcher receives decoded messages on a msgr-worker thread; it must not
// block (queue slow work to a worker pool instead), mirroring Ceph's
// fast-dispatch contract. A handler that spends CPU time on the worker says so
// with Messenger.Charge. A reply whose sender recycles it (cephmsg.Owner) is
// released once the dispatcher and its Charge are done: a handler that keeps
// one past that keeps a copy. p is always nil: a worker is a task chain with no
// proc to hand over. The parameter stays only because the benchmark's
// isolated messenger round (benchmark/isolated.go) passes handlers of this
// type; it goes together with that file's use of it.
type Dispatcher func(p *sim.Proc, src string, m cephmsg.Message)

// Registry resolves entity names ("osd.0", "client.3", "mon.0") to their
// messengers, standing in for address resolution + TCP connect.
type Registry struct {
	entities map[string]*Messenger
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entities: make(map[string]*Messenger)} }

// Lookup returns the messenger registered under name, or nil.
func (r *Registry) Lookup(name string) *Messenger { return r.entities[name] }

// All returns every registered messenger sorted by entity name, so
// aggregations built from it are deterministic.
func (r *Registry) All() []*Messenger {
	names := make([]string, 0, len(r.entities))
	for n := range r.entities {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Messenger, 0, len(names))
	for _, n := range names {
		out = append(out, r.entities[n])
	}
	return out
}

// Messenger is one entity's messaging endpoint: a set of worker event loops
// on the entity's CPU plus per-peer wire processes on the fabric.
type Messenger struct {
	env      *sim.Env
	cpu      *sim.CPU
	fabric   *sim.Fabric
	registry *Registry
	cfg      Config

	// name is the entity name; node is the fabric node the entity runs on.
	name string
	node string

	workers    []*worker
	nextWorker int
	frames     *sim.FreeList[frame] // the Env's (sim.Local): its messengers share one list
	// conns maps peer entity -> owning worker and outbound wire queue.
	conns    map[string]*conn
	dispatch Dispatcher
	// dispatching is the worker whose turn is inside the dispatcher (nil
	// outside one), the one Charge charges.
	dispatching *worker

	stats Stats
	tr    *trace.Tracer

	// Streaming state (all lazily allocated; nil until the first stream).
	// pumpBody is pump as a func value, made once: every stream-pump proc
	// shares it and finds its OutStream under its proc id.
	pumpBody     func(*sim.Proc)
	nextStreamID uint64
	outStreams   map[uint64]*OutStream
	inAsm        map[string]*cephmsg.Assembler
	inStreams    map[inKey]*InStream
	streamSink   StreamSink
}

// worker is one msgr-worker thread as a task chain over its queue of frames: a
// turn is one CPU burst (CPU.ExecThen), then on the send side the push of the
// frame to the lane's wire queue, on the receive side the decode and the
// dispatch — and the dispatcher's Charge, if it made one, the message's
// release and the frame's return to the free list, before the turn ends.
type worker struct {
	m  *Messenger
	th *sim.Thread
	q  *sim.Queue[*frame]
	// done is the served identity, run when a turn is over; f is the frame of
	// the turn under way, step what its next step does, busy the charge of its
	// burst, and charge the dispatcher's, if it made one. owner is the
	// dispatched message's record, released as the turn ends.
	done   sim.Task
	f      *frame
	step   workStep
	busy   sim.Duration
	charge charge
	owner  cephmsg.Owner
}

// workStep is what a worker's next step does.
type workStep uint8

const (
	workSent     workStep = iota // the send-side burst is over: hand the frame to the wire
	workReceived                 // the receive-side burst is over: decode and dispatch
	workCharged                  // the dispatcher's charge is paid: act, release the message, put the frame back
)

// charge is a dispatcher's Charge: cycles of th on cpu, then the action.
type charge struct {
	cpu    *sim.CPU
	th     *sim.Thread
	cycles int64
	then   func()
}

// conn is the state for one peer: Lanes independent ordered lanes, each
// with its own worker, wire process and sequence pair. Lane count can grow
// on the receive side when the peer runs more lanes than we do.
type conn struct {
	peer string
	// base is the worker-pool offset lane 0 maps to; lane i runs on
	// workers[(base+i) % len(workers)].
	base  int
	lanes []*connLane
}

// connLane is one ordered lane of a connection.
type connLane struct {
	worker *worker
	wireq  *sim.Queue[*frame]
	// sendSeq stamps outbound frames; recvSeq verifies inbound order.
	// Packet loss is handled below the sequence layer: a frame the fabric
	// drops triggers a session reset on the sending wire process, which
	// backs off and redelivers that same frame before sending the next
	// (Ceph's msgr2 reset + replay of unacked messages). The receive-side
	// invariant therefore still holds per lane — a violated sequence means
	// the transport itself broke and panics loudly.
	sendSeq uint64
	recvSeq uint64
}

// frame is one message from Send to the end of its receiver's turn, by pointer
// the item of every queue it passes. It is a record of the partition's free
// list, put back by the receiving worker, so it never leaves the partition; a
// session reset redelivers the same record.
type frame struct {
	// ln is the sender's lane; peer is the destination until the frame
	// arrives (recv), the source after.
	ln    *connLane
	peer  string
	recv  bool
	lane  int
	seq   uint64
	msg   cephmsg.Message
	bytes int64
	// wire and crc are only set when WireEncode: the encoded frame (header
	// scratch + shared payload segments, no flatten) and its segment-wise
	// CRC-32C, verified on receive.
	wire *wire.Bufferlist
	crc  uint32
	// Tracing state (zero when tracing is off or the message carries no
	// context): the originating op's span, the span of the stage currently
	// in flight, and the instant the frame entered the current queue.
	traceCtx uint64
	span     trace.SpanID
	enq      sim.Time
}

// New creates a messenger for entity name running on fabric node node,
// charging CPU work to cpu, and registers it in registry. The node must
// already be attached to the fabric.
func New(env *sim.Env, registry *Registry, fabric *sim.Fabric, cpu *sim.CPU,
	name, node string, cfg Config) *Messenger {
	if !fabric.HasNode(node) {
		panic(fmt.Sprintf("messenger: node %q not on fabric", node))
	}
	m := &Messenger{
		env: env, cpu: cpu, fabric: fabric, registry: registry,
		cfg: cfg.withDefaults(), name: name, node: node,
		conns:  make(map[string]*conn),
		frames: sim.Local[sim.FreeList[frame]](env),
	}
	for i := 0; i < m.cfg.Workers; i++ {
		w := &worker{
			m:  m,
			th: sim.NewThread(fmt.Sprintf("msgr-worker-%d@%s", i, name), ThreadCat),
			q:  sim.NewQueue[*frame](env),
		}
		m.workers = append(m.workers, w)
		w.done = w.q.ServeTask(w.th.Name, w.serve)
	}
	registry.entities[name] = m
	return m
}

// Name returns the entity name.
func (m *Messenger) Name() string { return m.name }

// Node returns the fabric node the entity runs on.
func (m *Messenger) Node() string { return m.node }

// Stats returns a copy of the traffic counters.
func (m *Messenger) Stats() Stats { return m.stats }

// Quiescent reports the frames of the messenger's Env not back on its free
// list: messages between their Send and the end of their receiver's turn.
func (m *Messenger) Quiescent() error { return m.frames.AllBack("messenger frames") }

// SetDispatcher installs the message handler. It must be set before any
// peer sends to this messenger.
func (m *Messenger) SetDispatcher(d Dispatcher) { m.dispatch = d }

// Charge is how a dispatcher spends CPU time without blocking: once it
// returns, the worker dispatching runs cycles of th on cpu (CPU.ExecThen),
// then runs then, and only after that finishes the frame and takes its next —
// busy exactly as long as an Exec inside the dispatcher would have kept it.
// Work that must follow the charge goes in then. Call it from a dispatcher, at
// most once per message.
func (m *Messenger) Charge(cpu *sim.CPU, th *sim.Thread, cycles int64, then func()) {
	w := m.dispatching
	if w == nil || w.charge.then != nil {
		panic(fmt.Sprintf("messenger %s: Charge outside a dispatcher, or twice for one message", m.name))
	}
	w.charge = charge{cpu: cpu, th: th, cycles: cycles, then: then}
}

// SetTracer enables framing-stage tracing on this endpoint (nil disables).
// Only messages carrying a trace context (RADOS op traffic) produce spans;
// heartbeats and map gossip stay untraced. With WireEncode the decoded copy
// handed to the dispatcher loses the out-of-band context, so downstream
// stages of wire-encoded runs go untraced by design.
func (m *Messenger) SetTracer(tr *trace.Tracer) { m.tr = tr }

// Send queues msg for delivery to entity dst. It never blocks the caller
// (the connection queue is unbounded, as Ceph's is in practice for the
// workloads modelled here). Unknown destinations panic: entity wiring is
// static in this simulation, so that is a configuration bug.
func (m *Messenger) Send(dst string, msg cephmsg.Message) {
	if m.cfg.Stream.Enable {
		if inner, data, ok := cephmsg.StreamSplit(msg, m.cfg.Stream.ChunkBytes); ok {
			m.streamSend(dst, inner, data)
			return
		}
	}
	c := m.connTo(dst)
	f := m.frames.Get()
	f.peer, f.msg, f.bytes = dst, msg, EnvelopeBytes+msg.PayloadBytes()
	if m.cfg.WireEncode {
		f.wire = cephmsg.Encode(msg)
		f.crc = f.wire.CRC32C()
		f.bytes = EnvelopeBytes + int64(f.wire.Length())
	}
	if m.tr.Enabled() {
		if f.traceCtx = cephmsg.TraceContext(msg); f.traceCtx != 0 {
			f.span = m.tr.Start(trace.SpanID(f.traceCtx), 0, trace.StageMsgrSend, dst)
			f.enq = m.env.Now()
		}
	}
	if m.cfg.Lanes > 1 {
		if key, ok := cephmsg.LaneKey(msg); ok {
			f.lane = int(key % uint64(m.cfg.Lanes))
		}
	}
	ln := c.lanes[f.lane]
	ln.sendSeq++
	f.ln, f.seq = ln, ln.sendSeq
	ln.worker.q.Push(f)
}

// connTo lazily creates the connection state (owning workers + one wire
// process per lane) for peer dst.
func (m *Messenger) connTo(dst string) *conn {
	if c, ok := m.conns[dst]; ok {
		return c
	}
	if m.registry.Lookup(dst) == nil {
		panic(fmt.Sprintf("messenger %s: unknown destination %q", m.name, dst))
	}
	c := &conn{peer: dst, base: m.nextWorker}
	m.nextWorker = (m.nextWorker + 1) % len(m.workers)
	m.conns[dst] = c
	for i := 0; i < m.cfg.Lanes; i++ {
		m.addLane(c)
	}
	return c
}

// reconnectBackoffMax caps the doubling of Config.ReconnectBackoff.
const reconnectBackoffMax = 2 * sim.Second

// addLane appends one lane to c and registers its wire process. Lane 0 keeps
// the historical process name so single-lane runs are unchanged.
func (m *Messenger) addLane(c *conn) *connLane {
	lane := len(c.lanes)
	ln := &connLane{
		worker: m.workers[(c.base+lane)%len(m.workers)],
		wireq:  sim.NewQueue[*frame](m.env),
	}
	c.lanes = append(c.lanes, ln)
	name := fmt.Sprintf("wire:%s->%s", m.name, c.peer)
	if lane > 0 {
		name = fmt.Sprintf("wire:%s->%s#%d", m.name, c.peer, lane)
	}
	peer := m.registry.Lookup(c.peer)
	w := &wireLane{m: m, peer: peer, link: m.fabric.Link(m.node, peer.node), name: name}
	w.done = ln.wireq.ServeTask(name, w.serve)
	return ln
}

// wireLane is a lane's wire process as a task chain over its queue of frames:
// a turn moves one frame over the fabric (Link.TransferFrameThen) and hands
// the record on to the peer. A frame the fabric drops resets the session: the
// lane backs off, reconnects and redelivers that same record, so the per-lane
// FIFO order survives the loss.
type wireLane struct {
	m, peer *Messenger
	// link is the path to the peer's node, resolved as the lane is made; rev
	// is the peer's connection back to m, resolved at the first delivery.
	link sim.Link
	rev  *conn
	name string
	// done is the served identity, run when a turn is over; f is the turn's
	// frame, step what its next step does, delivered whether the transfer
	// under way arrives, and backoff the next reset's.
	done      sim.Task
	f         *frame
	step      wireStep
	delivered bool
	backoff   sim.Duration
}

// wireStep is what a wire lane's next step does.
type wireStep uint8

const (
	wireSend      wireStep = iota // put the frame on the fabric
	wireArrived                   // the transfer's arrival instant: deliver, or reset
	wireBackedOff                 // the reset's backoff is over: send again
)

// serve starts a turn on f, the served identity's body.
func (w *wireLane) serve(f *frame) {
	if f.span != 0 {
		w.m.tr.AddQueueWait(f.span, w.m.env.Now().Sub(f.enq))
	}
	w.f, w.step, w.backoff = f, wireSend, w.m.cfg.ReconnectBackoff
	w.Run()
}

// Run is the wire lane's next step.
func (w *wireLane) Run() {
	m := w.m
	for {
		switch w.step {
		case wireSend:
			w.step = wireArrived
			var queued bool
			if _, w.delivered, queued = w.link.TransferFrameThen(w.f.bytes, w); queued {
				return
			}
		case wireArrived:
			if w.delivered {
				f := w.f
				if f.span != 0 {
					m.tr.AddBytes(f.span, f.bytes)
					m.tr.Finish(f.span)
					f.span = 0
				}
				w.f = nil
				if w.rev == nil {
					w.rev = w.peer.reverse(m)
				}
				w.peer.deliver(w.rev, f)
				w.done.Run() // the next turn may begin in here: touch nothing after
				return
			}
			m.stats.SessionResets++
			w.step = wireBackedOff
			if m.env.WaitThen(w.backoff, w) {
				return
			}
		case wireBackedOff:
			if w.backoff *= 2; w.backoff > reconnectBackoffMax {
				w.backoff = reconnectBackoffMax
			}
			m.stats.Redeliveries++
			w.step = wireSend
		}
	}
}

// String names the wire lane in deadlock reports.
func (w *wireLane) String() string { return w.name }

// reverse resolves the connection back to from, over which deliver hands on
// what from sends: a wire lane calls it once, at its first delivery. A frame
// from another Env panics.
func (m *Messenger) reverse(from *Messenger) *conn {
	if from.env != m.env {
		panic(fmt.Sprintf("messenger %s: frame from %s crosses partitions (they meet over sim.XLink)", m.name, from.name))
	}
	return m.connTo(from.name)
}

// deliver hands a frame arrived over c, the connection back to its sender, to
// the owning worker of the lane, enforcing the per-lane sequence invariant. A
// peer running more lanes than we do grows our side on demand, so asymmetric
// lane configurations interoperate.
func (m *Messenger) deliver(c *conn, f *frame) {
	f.peer, f.recv = c.peer, true
	for f.lane >= len(c.lanes) {
		m.addLane(c)
	}
	ln := c.lanes[f.lane]
	if f.seq != ln.recvSeq+1 {
		panic(fmt.Sprintf("messenger %s: frame from %s out of order: lane %d seq %d after %d",
			m.name, f.peer, f.lane, f.seq, ln.recvSeq))
	}
	ln.recvSeq = f.seq
	if m.tr.Enabled() && f.traceCtx != 0 {
		f.span = m.tr.Start(trace.SpanID(f.traceCtx), 0, trace.StageMsgrRecv, m.name)
		f.enq = m.env.Now()
	}
	ln.worker.q.Push(f)
}

// The socket model under a worker's per-message charges.
const (
	// tcpSegmentBytes is the data moved per send/recv syscall.
	tcpSegmentBytes int64 = 64 << 10
	// sendSyscallCycles / recvSyscallCycles are charged per syscall.
	sendSyscallCycles int64 = 9_000
	recvSyscallCycles int64 = 9_000
	// switchesPerSend / switchesPerRecv record voluntary context switches
	// per message (blocking socket wakeups).
	switchesPerSend int64 = 2
	switchesPerRecv int64 = 2
	// bytesPerSwitch adds one voluntary switch per this many message bytes
	// (socket-buffer-full blocking on large sends/recvs).
	bytesPerSwitch int64 = 288 << 10
)

// serve starts a turn on f, the served identity's body: the send-side encode
// + TCP costs before the frame goes to the wire, or the receive-side TCP +
// decode + dispatch costs after a frame arrived, as one burst.
func (w *worker) serve(f *frame) {
	m := w.m
	w.f = f
	segments := (f.bytes + tcpSegmentBytes - 1) / tcpSegmentBytes
	var cycles int64
	if f.recv {
		if f.span != 0 {
			m.tr.AddQueueWait(f.span, m.env.Now().Sub(f.enq))
		}
		cycles = recvSyscallCycles*segments +
			int64(float64(f.bytes)*(m.cfg.RxCopyCyclesPerByte+m.cfg.CRCCyclesPerByte)) +
			m.cfg.DecodeCycles + m.cfg.DispatchCycles
		w.step = workReceived
	} else {
		cycles = m.cfg.EncodeCycles +
			int64(float64(f.bytes)*(m.cfg.TxCopyCyclesPerByte+m.cfg.CRCCyclesPerByte)) +
			sendSyscallCycles*segments
		if f.span != 0 {
			m.tr.AddQueueWait(f.span, m.env.Now().Sub(f.enq))
			m.tr.AddBytes(f.span, f.bytes)
		}
		w.step = workSent
	}
	if !m.cpu.ExecThen(w.th, cycles, &w.busy, w) {
		w.Run()
	}
}

// Run is the worker's next step.
func (w *worker) Run() {
	m, f := w.m, w.f
	for {
		switch w.step {
		case workSent:
			if f.span != 0 {
				m.tr.AddCPU(f.span, m.cpu.Name(), w.busy)
				m.tr.Finish(f.span)
				// Hand the frame to the wire stage under a fresh span covering
				// the outbound queue plus fabric occupancy (including any
				// session-reset redeliveries).
				f.span = m.tr.Start(trace.SpanID(f.traceCtx), 0, trace.StageWire, f.peer)
				f.enq = m.env.Now()
			}
			m.cpu.NoteSwitches(w.th, switchesPerSend+f.bytes/bytesPerSwitch)
			m.stats.Sent++
			m.stats.BytesSent += f.bytes
			f.ln.wireq.Push(f)
			w.end()
			return
		case workReceived:
			w.receive()
			w.step = workCharged
			if c := &w.charge; c.then != nil && c.cpu.ExecThen(c.th, c.cycles, nil, w) {
				return
			}
		case workCharged:
			if then := w.charge.then; then != nil {
				w.charge = charge{}
				then()
			}
			if o := w.owner; o != nil {
				w.owner = nil
				o.Release()
			}
			if f.span != 0 {
				m.tr.AddBytes(f.span, f.bytes)
				m.tr.Finish(f.span)
			}
			if f.wire != nil {
				// Everything header-shaped was copied out during decode and
				// the payload lives in its own shared segments, so the
				// pooled header scratch can go back.
				wire.PutBuffer(f.wire.FirstSegment())
			}
			m.frames.Put(f)
			w.end()
			return
		}
	}
}

// receive accounts an arrived frame's burst, checks and decodes it, and hands
// the message to the stream layer or the dispatcher. A dispatched message
// whose sender recycles its record is released as the turn ends; the decoded
// copy of a WireEncode frame has no record.
func (w *worker) receive() {
	m, f := w.m, w.f
	m.tr.AddCPU(f.span, m.cpu.Name(), w.busy)
	m.cpu.NoteSwitches(w.th, switchesPerRecv+f.bytes/bytesPerSwitch)
	m.stats.Received++
	m.stats.BytesRecv += f.bytes
	msg := f.msg
	if f.wire != nil {
		if got := f.wire.CRC32C(); got != f.crc {
			panic(fmt.Sprintf("messenger %s: frame from %s CRC mismatch: %#x != %#x",
				m.name, f.peer, got, f.crc))
		}
		decoded, err := cephmsg.Decode(f.wire)
		if err != nil {
			panic(fmt.Sprintf("messenger %s: corrupt frame from %s: %v", m.name, f.peer, err))
		}
		msg = decoded
	}
	// Stream frames are transport-level and consumed here; only application
	// messages (including reassembled stream payloads dispatched from
	// handleStream) need a dispatcher.
	m.dispatching = w
	if !m.handleStream(f.peer, msg) {
		if m.dispatch == nil {
			panic(fmt.Sprintf("messenger %s: message from %s with no dispatcher", m.name, f.peer))
		}
		m.dispatch(nil, f.peer, msg)
		if o := cephmsg.OwnerOf(msg); o != nil {
			w.owner = o
		}
	}
	m.dispatching = nil
}

// end closes the turn and lets the identity take the next item.
func (w *worker) end() {
	w.f = nil
	w.done.Run() // the next turn may begin in here: touch nothing after
}

// String names the worker in deadlock reports.
func (w *worker) String() string { return w.th.Name }
