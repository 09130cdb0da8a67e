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
// block on slow operations (queue to a worker pool instead), mirroring
// Ceph's fast-dispatch contract. p is the worker process, for CPU charging
// by the handler if needed.
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
	// conns maps peer entity -> owning worker and outbound wire queue.
	conns    map[string]*conn
	dispatch Dispatcher

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

type worker struct {
	th *sim.Thread
	q  *sim.Queue[workItem]
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
	wireq  *sim.Queue[frame]
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

type workItem struct {
	recv  bool
	peer  string
	frame frame
}

type frame struct {
	src   string
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
		conns: make(map[string]*conn),
	}
	work := m.work
	for i := 0; i < m.cfg.Workers; i++ {
		w := &worker{
			th: sim.NewThread(fmt.Sprintf("msgr-worker-%d@%s", i, name), ThreadCat),
			q:  sim.NewQueue[workItem](env),
		}
		m.workers = append(m.workers, w)
		w.q.Serve(w.th.Name, w.th, work)
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

// SetDispatcher installs the message handler. It must be set before any
// peer sends to this messenger.
func (m *Messenger) SetDispatcher(d Dispatcher) { m.dispatch = d }

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
	f := m.makeFrame(msg)
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
	f.seq = ln.sendSeq
	ln.worker.q.Push(workItem{peer: dst, frame: f})
}

func (m *Messenger) makeFrame(msg cephmsg.Message) frame {
	f := frame{src: m.name, msg: msg, bytes: EnvelopeBytes + msg.PayloadBytes()}
	if m.cfg.WireEncode {
		f.wire = cephmsg.Encode(msg)
		f.crc = f.wire.CRC32C()
		f.bytes = EnvelopeBytes + int64(f.wire.Length())
	}
	return f
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
		wireq:  sim.NewQueue[frame](m.env),
	}
	c.lanes = append(c.lanes, ln)
	name := fmt.Sprintf("wire:%s->%s", m.name, c.peer)
	if lane > 0 {
		name = fmt.Sprintf("wire:%s->%s#%d", m.name, c.peer, lane)
	}
	peer := m.registry.Lookup(c.peer)
	ln.wireq.Serve(name, nil, func(p *sim.Proc, f frame) { m.transmit(p, peer, f) })
	return ln
}

// transmit is what a lane's wire process does with one frame.
func (m *Messenger) transmit(p *sim.Proc, peer *Messenger, f frame) {
	if f.span != 0 {
		m.tr.AddQueueWait(f.span, p.Now().Sub(f.enq))
	}
	backoff := m.cfg.ReconnectBackoff
	for {
		if _, ok := m.fabric.TransferFrame(p, m.node, peer.node, f.bytes); ok {
			if f.span != 0 {
				m.tr.AddBytes(f.span, f.bytes)
				m.tr.Finish(f.span)
				f.span = 0
			}
			peer.deliver(f)
			return
		}
		// The frame was lost in flight: reset the session, back off,
		// reconnect and redeliver the same frame so the per-lane FIFO
		// order survives the loss.
		m.stats.SessionResets++
		p.Wait(backoff)
		if backoff *= 2; backoff > reconnectBackoffMax {
			backoff = reconnectBackoffMax
		}
		m.stats.Redeliveries++
	}
}

// deliver hands an arrived frame to the owning worker of the reverse
// connection's lane, enforcing the per-lane sequence invariant. A peer
// running more lanes than we do grows our side on demand, so asymmetric
// lane configurations interoperate.
func (m *Messenger) deliver(f frame) {
	c := m.connTo(f.src)
	for f.lane >= len(c.lanes) {
		m.addLane(c)
	}
	ln := c.lanes[f.lane]
	if f.seq != ln.recvSeq+1 {
		panic(fmt.Sprintf("messenger %s: frame from %s out of order: lane %d seq %d after %d",
			m.name, f.src, f.lane, f.seq, ln.recvSeq))
	}
	ln.recvSeq = f.seq
	if m.tr.Enabled() && f.traceCtx != 0 {
		f.span = m.tr.Start(trace.SpanID(f.traceCtx), 0, trace.StageMsgrRecv, m.name)
		f.enq = m.env.Now()
	}
	ln.worker.q.Push(workItem{recv: true, peer: f.src, frame: f})
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

// work is one turn of a msgr-worker event loop: it pays the send-side encode
// + TCP costs before handing a frame to the wire, and the receive-side TCP +
// decode + dispatch costs after a frame arrives.
func (m *Messenger) work(p *sim.Proc, it workItem) {
	th := p.Thread()
	f := it.frame
	segments := (f.bytes + tcpSegmentBytes - 1) / tcpSegmentBytes
	if it.recv {
		if f.span != 0 {
			m.tr.AddQueueWait(f.span, p.Now().Sub(f.enq))
		}
		cycles := recvSyscallCycles*segments +
			int64(float64(f.bytes)*(m.cfg.RxCopyCyclesPerByte+m.cfg.CRCCyclesPerByte)) +
			m.cfg.DecodeCycles + m.cfg.DispatchCycles
		m.tr.AddCPU(f.span, m.cpu.Name(), m.cpu.Exec(p, th, cycles))
		m.cpu.NoteSwitches(th, switchesPerRecv+f.bytes/bytesPerSwitch)
		m.stats.Received++
		m.stats.BytesRecv += f.bytes
		msg := f.msg
		if f.wire != nil {
			if got := f.wire.CRC32C(); got != f.crc {
				panic(fmt.Sprintf("messenger %s: frame from %s CRC mismatch: %#x != %#x",
					m.name, it.peer, got, f.crc))
			}
			decoded, err := cephmsg.Decode(f.wire)
			if err != nil {
				panic(fmt.Sprintf("messenger %s: corrupt frame from %s: %v", m.name, it.peer, err))
			}
			msg = decoded
		}
		// Stream frames are transport-level and consumed here; only
		// application messages (including reassembled stream payloads
		// dispatched from handleStream) need a dispatcher.
		if !m.handleStream(p, it.peer, msg) {
			if m.dispatch == nil {
				panic(fmt.Sprintf("messenger %s: message from %s with no dispatcher", m.name, it.peer))
			}
			m.dispatch(p, it.peer, msg)
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
		return
	}
	cycles := m.cfg.EncodeCycles +
		int64(float64(f.bytes)*(m.cfg.TxCopyCyclesPerByte+m.cfg.CRCCyclesPerByte)) +
		sendSyscallCycles*segments
	if f.span != 0 {
		m.tr.AddQueueWait(f.span, p.Now().Sub(f.enq))
		m.tr.AddBytes(f.span, f.bytes)
		m.tr.AddCPU(f.span, m.cpu.Name(), m.cpu.Exec(p, th, cycles))
		m.tr.Finish(f.span)
		// Hand the frame to the wire stage under a fresh span covering
		// the outbound queue plus fabric occupancy (including any
		// session-reset redeliveries).
		f.span = m.tr.Start(trace.SpanID(f.traceCtx), 0, trace.StageWire, it.peer)
		f.enq = p.Now()
	} else {
		m.cpu.Exec(p, th, cycles)
	}
	m.cpu.NoteSwitches(th, switchesPerSend+f.bytes/bytesPerSwitch)
	m.stats.Sent++
	m.stats.BytesSent += f.bytes
	m.conns[it.peer].lanes[f.lane].wireq.Push(f)
}
