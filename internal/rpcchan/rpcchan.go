// Package rpcchan implements the lightweight control-plane RPC channel of
// DoCeph (paper §3.2): a persistent socket between the DPU and the host
// carrying small serialized requests — each framed as a header with the
// operation type, a unique request id and the payload length — dispatched
// by an event-driven server loop on the receiving side. It is deliberately
// cheap but not free: every message pays syscall, copy and wakeup costs on
// both CPUs, which is why bulk data does NOT belong on this path.
package rpcchan

import (
	"fmt"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

// HeaderBytes is the frame header size (op + request id + length).
const HeaderBytes = 16

// Config models one endpoint's CPU costs and the link between the two.
type Config struct {
	// Latency is the one-way socket latency (kernel path over PCIe/host
	// interface).
	Latency sim.Duration
}

// DefaultConfig returns the control-channel default (~25 us latency).
func DefaultConfig() Config {
	return Config{Latency: 25 * sim.Microsecond}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Latency == 0 {
		c.Latency = d.Latency
	}
	return c
}

// Request is a decoded inbound RPC, handed to its handler by value.
type Request struct {
	Op      uint16
	ReqID   uint64
	Payload *wire.Bufferlist
}

// Handler services one request on the endpoint's server loop. Respond may
// be called inline or later from a spawned process (for handlers that block
// on storage); it must be called exactly once per request.
type Handler func(p *sim.Proc, req Request, respond func(payload *wire.Bufferlist, errCode uint16))

// noResponse is the respond function of every Notify.
func noResponse(*wire.Bufferlist, uint16) {}

// Stats counts endpoint traffic.
type Stats struct {
	CallsSent   int64
	CallsServed int64
	BytesSent   int64
	BytesRecv   int64
}

// Endpoint is one side of the channel.
type Endpoint struct {
	env  *sim.Env
	name string
	// respPrefix names the per-response procs ("rpc-resp:<name>/<reqID>");
	// built once, not per message.
	respPrefix string

	cpu *sim.CPU
	th  *sim.Thread
	cfg Config

	peer     *Endpoint
	inq      *sim.Queue[envelope]
	handlers map[uint16]Handler
	pending  map[uint64]*pendingCall
	nextID   uint64
	// sendFree is the busy-until time of this endpoint's outbound socket
	// direction.
	sendFree sim.Time

	stats Stats
}

// envelope is one message on the wire and, on the heap, the courier task
// that delivers it to endpoint to at its arrival instant.
type envelope struct {
	to      *Endpoint
	req     bool
	notify  bool
	op      uint16
	reqID   uint64
	errCode uint16
	payload *wire.Bufferlist
	bytes   int64
}

func (env *envelope) Run() { env.to.inq.Push(*env) }

type pendingCall struct {
	done    *sim.Event
	payload *wire.Bufferlist
	errCode uint16
}

// Response error codes: 0 is success; anything else is surfaced to the
// caller as a CallError.
type CallError struct{ Code uint16 }

func (e CallError) Error() string { return fmt.Sprintf("rpcchan: remote error code %d", e.Code) }

// New wires two endpoints together. Each endpoint charges its work to its
// own CPU under the given thread (the paper's taxonomy: the proxy thread on
// the DPU, the RPC-server thread on the host).
func New(env *sim.Env, nameA string, cpuA *sim.CPU, thA *sim.Thread,
	nameB string, cpuB *sim.CPU, thB *sim.Thread, cfg Config) (*Endpoint, *Endpoint) {
	cfg = cfg.withDefaults()
	a := newEndpoint(env, nameA, cpuA, thA, cfg)
	b := newEndpoint(env, nameB, cpuB, thB, cfg)
	a.peer, b.peer = b, a
	return a, b
}

func newEndpoint(env *sim.Env, name string, cpu *sim.CPU, th *sim.Thread, cfg Config) *Endpoint {
	e := &Endpoint{
		env: env, name: name, cpu: cpu, th: th, cfg: cfg,
		respPrefix: "rpc-resp:" + name + "/",
		inq:        sim.NewQueue[envelope](env),
		handlers:   make(map[uint16]Handler),
		pending:    make(map[uint64]*pendingCall),
	}
	e.inq.Serve("rpc-server:"+name, th, e.serve)
	return e
}

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Handle registers a handler for op.
func (e *Endpoint) Handle(op uint16, h Handler) { e.handlers[op] = h }

// Call sends a request and blocks p until the response arrives, returning
// the response payload.
func (e *Endpoint) Call(p *sim.Proc, op uint16, payload *wire.Bufferlist) (*wire.Bufferlist, error) {
	e.nextID++
	id := e.nextID
	pc := &pendingCall{done: sim.NewEvent()}
	e.pending[id] = pc
	e.send(p, envelope{req: true, op: op, reqID: id, payload: payload})
	e.stats.CallsSent++
	pc.done.Wait(p)
	if pc.errCode != 0 {
		return nil, CallError{Code: pc.errCode}
	}
	return pc.payload, nil
}

// Notify sends a one-way message (no response) processed by the peer's
// handler for op; the handler's respond function becomes a no-op.
func (e *Endpoint) Notify(p *sim.Proc, op uint16, payload *wire.Bufferlist) {
	e.nextID++
	e.send(p, envelope{req: true, notify: true, op: op, reqID: e.nextID, payload: payload})
}

const (
	// bytesPerSec is the socket throughput (this is a control channel; the
	// value is deliberately modest: 2 GB/s).
	bytesPerSec float64 = 2e9
	// fixedCycles is charged per message on the processing endpoint.
	fixedCycles int64 = 10_000
	// perByteCycles is charged per payload byte (serialize + copy).
	perByteCycles float64 = 0.8
	// switchesPerMsg records voluntary context switches per message.
	switchesPerMsg int64 = 2
)

// transmit pays the sender-side CPU cost of env on p and books the message
// on the outbound socket direction (serialization + latency behind a
// busy-until time); it returns the arrival instant at the peer.
func (e *Endpoint) transmit(p *sim.Proc, env *envelope) sim.Time {
	env.to = e.peer
	env.bytes = HeaderBytes
	if env.payload != nil {
		env.bytes += int64(env.payload.Length())
	}
	e.cpu.Exec(p, e.th, fixedCycles+int64(float64(env.bytes)*perByteCycles))
	e.cpu.NoteSwitches(e.th, switchesPerMsg)
	e.stats.BytesSent += env.bytes

	ser := sim.Duration(float64(env.bytes) / bytesPerSec * float64(sim.Second))
	start := e.env.Now()
	if e.sendFree > start {
		start = e.sendFree
	}
	e.sendFree = start.Add(ser)
	return start.Add(ser + e.cfg.Latency)
}

// send transmits env and leaves its delivery into the peer's input queue to
// a courier task (non-blocking for the caller beyond the CPU cost, like a
// buffered socket write).
func (e *Endpoint) send(p *sim.Proc, env envelope) {
	e.env.At(e.transmit(p, &env), &env)
}

// serve is one turn of the endpoint's event-driven receive loop.
func (e *Endpoint) serve(p *sim.Proc, env envelope) {
	e.cpu.Exec(p, e.th, fixedCycles+int64(float64(env.bytes)*perByteCycles))
	e.cpu.NoteSwitches(e.th, switchesPerMsg)
	e.stats.BytesRecv += env.bytes
	if env.req {
		e.stats.CallsServed++
		h, ok := e.handlers[env.op]
		if !ok {
			if !env.notify {
				e.send(p, envelope{reqID: env.reqID, errCode: 0xFFFF})
			}
			return
		}
		req := Request{Op: env.op, ReqID: env.reqID, Payload: env.payload}
		if env.notify {
			h(p, req, noResponse)
			return
		}
		id := env.reqID
		responded := false
		h(p, req, func(payload *wire.Bufferlist, errCode uint16) {
			if responded {
				panic("rpcchan: respond called twice for req " + fmt.Sprint(id))
			}
			responded = true
			// The responder may be a spawned completion process;
			// charge the response send to the server thread via the
			// current proc.
			e.sendFromAny(payload, errCode, id)
		})
		return
	}
	// Response path.
	if pc, ok := e.pending[env.reqID]; ok {
		pc.payload = env.payload
		pc.errCode = env.errCode
		pc.done.Fire()
		delete(e.pending, env.reqID)
	}
}

// sendFromAny sends a response envelope on behalf of whatever process is
// running; a courier proc on the endpoint's thread pays the CPU cost and
// delivers it.
func (e *Endpoint) sendFromAny(payload *wire.Bufferlist, errCode uint16, reqID uint64) {
	env := envelope{reqID: reqID, errCode: errCode, payload: payload}
	e.env.SpawnID(e.respPrefix, reqID, func(cp *sim.Proc) {
		cp.WaitUntil(e.transmit(cp, &env))
		env.Run()
	})
}
