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

// Handler services one request on the endpoint's server chain. It must not
// block: CPU time it spends is an Endpoint.Charge. respond may be called
// inline, from a Charge's then, or later from another process (for work that
// blocks on storage); it must be called exactly once per request.
type Handler func(req Request, respond func(payload *wire.Bufferlist, errCode uint16))

// noResponse is the respond function of every NotifyTask message.
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

	cpu *sim.CPU
	th  *sim.Thread
	cfg Config

	peer *Endpoint
	inq  *sim.Queue[*envelope]
	srv  server
	// envs is the partition's free list of envelopes (sim.Local), shared by
	// its endpoints.
	envs *sim.FreeList[envelope]
	// handlers is indexed by op: op codes are small.
	handlers []Handler
	pending  map[uint64]*Reply
	nextID   uint64
	// sendFree is the busy-until time of this endpoint's outbound socket
	// direction.
	sendFree sim.Time

	stats Stats
}

// envelope is one message on the wire and, on the heap, the courier task
// that delivers it to endpoint to at its arrival instant. Before that, the
// envelope of NotifyTask, CallTask or a response is the continuation of the
// sender's CPU burst, and a response's also the task its sending starts on.
// Its size is computed from the payload, which nothing changes in flight;
// that keeps the envelope, sent included, in the 64-byte size class. It is a
// record from the partition's free list and, by pointer, the item of the peer's
// input queue; the peer's server puts it back as its turn on the message ends.
type envelope struct {
	to      *Endpoint
	payload *wire.Bufferlist
	reqID   uint64
	// consumed and sent are NotifyTask's tasks.
	consumed, sent sim.Task
	op, errCode    uint16
	req, notify    bool
	step           envStep
}

// envStep is what an envelope's next step does.
type envStep uint8

const (
	envBook    envStep = iota // the sender has paid for the message: book it on the socket
	envRespond                // a response's first step: the sender pays for it
	envDeliver                // the message has arrived: into the peer's input queue
)

// size is the message's length on the wire.
func (env *envelope) size() int64 {
	if env.payload == nil {
		return HeaderBytes
	}
	return HeaderBytes + int64(env.payload.Length())
}

// Run is the envelope's next step. A booked NotifyTask message goes on to
// sent and a CallTask one waits for its response; each is
// delivered by the envelope at its arrival. A response waits out its flight
// and delivers itself, as the response proc of a proc-form server did.
func (env *envelope) Run() {
	from := env.to.peer
	switch env.step {
	case envRespond:
		env.step = envBook
		if from.cpu.ExecThen(from.th, from.cost(env), nil, env) {
			return
		}
		fallthrough
	case envBook:
		arrival := from.book(env)
		if !env.req {
			if d := arrival.Sub(from.env.Now()); d <= 0 || !from.env.WaitThen(d, env) {
				env.to.inq.Push(env)
			}
			return
		}
		from.env.At(arrival, env)
		if env.notify {
			if env.sent != nil {
				env.sent.Run()
			}
			return
		}
		from.stats.CallsSent++
		r := from.pending[env.reqID]
		if !r.done.WaitThen(from.env, r.then) {
			r.then.Run()
		}
	case envDeliver:
		env.to.inq.Push(env)
	}
}

// newEnvelope takes an envelope from the free list and sets it to v.
func (e *Endpoint) newEnvelope(v envelope) *envelope {
	env := e.envs.Get()
	*env = v
	return env
}

// Reply is a call awaiting its response, which the endpoint's server loop
// fills in when it arrives.
type Reply struct {
	done    *sim.Event
	payload *wire.Bufferlist
	errCode uint16
	// then is CallTask's continuation.
	then sim.Task
}

// Result returns the response payload, or the CallError of a remote error.
func (r *Reply) Result() (*wire.Bufferlist, error) {
	if r.errCode != 0 {
		return nil, CallError{Code: r.errCode}
	}
	return r.payload, nil
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
		inq:     sim.NewQueue[*envelope](env),
		pending: make(map[uint64]*Reply),
		envs:    sim.Local[sim.FreeList[envelope]](env),
	}
	e.srv.e = e
	e.srv.done = e.inq.ServeTask("rpc-server:"+name, e.srv.serve)
	return e
}

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Handle registers a handler for op.
func (e *Endpoint) Handle(op uint16, h Handler) {
	if n := int(op) + 1; n > len(e.handlers) {
		e.handlers = append(e.handlers, make([]Handler, n-len(e.handlers))...)
	}
	e.handlers[op] = h
}

// CallTask sends a request and runs next once its response is in: the
// sender's cost is a CPU burst of the endpoint's thread whose continuation is
// the envelope, as with NotifyTask; the request is booked when it ends, and
// next is always registered, for the response's arrival. The Reply holds the
// response from then on. A proc calls by passing itself as next and
// suspending (sim.Proc.Suspend).
func (e *Endpoint) CallTask(op uint16, payload *wire.Bufferlist, next sim.Task) *Reply {
	e.nextID++
	id := e.nextID
	r := &Reply{done: sim.NewEvent(), then: next}
	e.pending[id] = r
	e.sendTask(e.newEnvelope(envelope{req: true, op: op, reqID: id, payload: payload}))
	return r
}

// sendTask charges env's cost to the endpoint's thread with the envelope as
// the burst's continuation.
func (e *Endpoint) sendTask(env *envelope) {
	if !e.cpu.ExecThen(e.th, e.cost(env), nil, env) {
		env.Run()
	}
}

// NotifyTask sends a one-way message (no response) processed by the peer's
// handler for op, whose respond function becomes a no-op. The sender's cost is
// a CPU burst of the endpoint's thread (CPU.ExecThen), and the message is
// booked on the socket when it ends; sent, when not nil, runs right after,
// where the sender goes on. consumed, when not nil, runs on the peer's server
// loop as soon as the handler has returned — the point after which nothing
// reads the payload — or never, if no handler takes the message.
func (e *Endpoint) NotifyTask(op uint16, payload *wire.Bufferlist, consumed, sent sim.Task) {
	e.nextID++
	e.sendTask(e.newEnvelope(envelope{req: true, notify: true, op: op, reqID: e.nextID, payload: payload, consumed: consumed, sent: sent}))
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

// cost addresses env to the peer and returns the sender-side CPU cost of
// sending it.
func (e *Endpoint) cost(env *envelope) int64 {
	env.to = e.peer
	return msgCycles(env)
}

// msgCycles is the CPU cost of a message on either side.
func msgCycles(env *envelope) int64 {
	return fixedCycles + int64(float64(env.size())*perByteCycles)
}

// book puts env, whose cost has been paid, on the outbound socket direction
// (serialization + latency behind a busy-until time) and returns its arrival
// instant at the peer.
func (e *Endpoint) book(env *envelope) sim.Time {
	e.cpu.NoteSwitches(e.th, switchesPerMsg)
	bytes := env.size()
	e.stats.BytesSent += bytes
	env.step = envDeliver

	ser := sim.Duration(float64(bytes) / bytesPerSec * float64(sim.Second))
	start := e.env.Now()
	if e.sendFree > start {
		start = e.sendFree
	}
	e.sendFree = start.Add(ser)
	return start.Add(ser + e.cfg.Latency)
}

// server is the endpoint's event-driven receive loop as a task chain over
// its input queue: a turn is one CPU burst (CPU.ExecThen), then the handler,
// or the response filed for its call — and the handler's Charges, burst then
// action, before the turn ends.
type server struct {
	e *Endpoint
	// done is the served identity, run when a turn is over; env is the
	// message of the turn under way, step what its next step does, charge
	// the handler's pending Charge and busy the time its burst charged.
	done   sim.Task
	env    *envelope
	step   serveStep
	charge charge
	busy   sim.Duration
}

// serveStep is what the server's next step does.
type serveStep uint8

const (
	serveIdle     serveStep = iota // between turns
	serveReceived                  // the receive burst is over: dispatch
	serveHandled                   // inside the handler or a Charge's then: run the next Charge
	serveCharged                   // a Charge's burst is over: its then
)

// charge is a handler's Charge: cycles of the endpoint's thread, then the
// action.
type charge struct {
	cycles int64
	then   func(busy sim.Duration)
}

// Charge is how a handler spends CPU time without blocking: once the handler
// returns, the server runs cycles of the endpoint's thread on its CPU
// (CPU.ExecThen), then then with the busy time charged, and takes its next
// message only after that — busy exactly as long as an Exec inside the
// handler would have kept it. Work that must follow the charge goes in then,
// which may Charge again. Call it from a handler or a then, at most once
// before it returns.
func (e *Endpoint) Charge(cycles int64, then func(busy sim.Duration)) {
	s := &e.srv
	if s.step != serveHandled || s.charge.then != nil {
		panic(fmt.Sprintf("rpcchan %s: Charge outside a handler, or twice before it returned", e.name))
	}
	s.charge = charge{cycles: cycles, then: then}
}

// serve starts a turn on env, the served identity's body.
func (s *server) serve(env *envelope) {
	s.env, s.step = env, serveReceived
	if !s.e.cpu.ExecThen(s.e.th, msgCycles(env), nil, s) {
		s.Run()
	}
}

// Run is the server's next step.
func (s *server) Run() {
	e := s.e
	for {
		switch s.step {
		case serveReceived:
			s.step = serveHandled
			s.dispatch()
		case serveHandled:
			c := s.charge
			if c.then == nil {
				s.end()
				return
			}
			s.charge, s.step = charge{then: c.then}, serveCharged
			if e.cpu.ExecThen(e.th, c.cycles, &s.busy, s) {
				return
			}
		case serveCharged:
			then := s.charge.then
			s.charge, s.step = charge{}, serveHandled
			then(s.busy)
		}
	}
}

// dispatch accounts the received message and hands a request to its handler,
// or files a response for its call.
func (s *server) dispatch() {
	e, env := s.e, s.env
	e.cpu.NoteSwitches(e.th, switchesPerMsg)
	e.stats.BytesRecv += env.size()
	if !env.req {
		if pc, ok := e.pending[env.reqID]; ok {
			pc.payload = env.payload
			pc.errCode = env.errCode
			pc.done.Fire()
			delete(e.pending, env.reqID)
		}
		return
	}
	e.stats.CallsServed++
	var h Handler
	if int(env.op) < len(e.handlers) {
		h = e.handlers[env.op]
	}
	if h == nil {
		env.consumed = nil // no handler takes it: never consumed
		if !env.notify {
			rej := e.newEnvelope(envelope{reqID: env.reqID, errCode: 0xFFFF})
			e.Charge(e.cost(rej), func(sim.Duration) { e.env.At(e.book(rej), rej) })
		}
		return
	}
	req := Request{Op: env.op, ReqID: env.reqID, Payload: env.payload}
	if env.notify {
		h(req, noResponse)
		return
	}
	id := env.reqID
	responded := false
	h(req, func(payload *wire.Bufferlist, errCode uint16) {
		if responded {
			panic("rpcchan: respond called twice for req " + fmt.Sprint(id))
		}
		responded = true
		e.respond(payload, errCode, id)
	})
}

// end finishes the turn — the envelope goes back to the free list and a
// notification the handler took is consumed — and hands the identity back;
// nothing of s may be touched after it, as the next turn may already have
// begun.
func (s *server) end() {
	consumed := s.env.consumed
	s.e.envs.Put(s.env)
	s.env, s.step = nil, serveIdle
	if consumed != nil {
		consumed.Run()
	}
	s.done.Run()
}

// respond sends a response on behalf of whatever is running: the envelope,
// started in an event of its own, pays the cost on the endpoint's thread and
// delivers itself.
func (e *Endpoint) respond(payload *wire.Bufferlist, errCode uint16, reqID uint64) {
	e.env.Delay(0, e.newEnvelope(envelope{to: e.peer, reqID: reqID, errCode: errCode, payload: payload, step: envRespond}))
}
