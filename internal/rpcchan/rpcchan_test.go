package rpcchan

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

type rpcRig struct {
	env       *sim.Env
	dpuCPU    *sim.CPU
	hostCPU   *sim.CPU
	dpu, host *Endpoint
}

func newRPCRig(cfg Config) *rpcRig {
	env := sim.NewEnv(1)
	r := &rpcRig{
		env:     env,
		dpuCPU:  sim.NewCPU(env, "arm", 8, 2.0, 2000),
		hostCPU: sim.NewCPU(env, "host", 8, 3.7, 2000),
	}
	r.dpu, r.host = New(env,
		"dpu", r.dpuCPU, sim.NewThread("proxy-rpc", "proxy"),
		"host", r.hostCPU, sim.NewThread("host-rpc", "rpc-server"), cfg)
	return r
}

func (r *rpcRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("dpu-caller", "proxy"))
		body(p)
		done = true
	})
	if err := r.env.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("body did not finish")
	}
	r.env.Shutdown()
}

func TestCallRoundTrip(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(1, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(wire.FromBytes(append([]byte("echo:"), req.Payload.Bytes()...)), 0)
	})
	r.run(t, func(p *sim.Proc) {
		resp, err := call(p, r.dpu, 1, wire.FromBytes([]byte("hello")))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Bytes()) != "echo:hello" {
			t.Fatalf("resp=%q", resp.Bytes())
		}
	})
}

func TestCallsMatchConcurrently(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(2, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		// Respond asynchronously with a delay inversely ordered to arrival,
		// forcing out-of-order responses.
		payload := req.Payload.Clone()
		d := sim.Duration(100-payload.Bytes()[0]) * sim.Millisecond
		r.env.Spawn("responder", func(cp *sim.Proc) {
			cp.Wait(d)
			respond(payload, 0)
		})
	})
	results := make([]byte, 3)
	for i := 0; i < 3; i++ {
		idx := i
		r.env.Spawn("caller", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("c", "proxy"))
			resp, err := call(p, r.dpu, 2, wire.FromBytes([]byte{byte(idx)}))
			if err != nil {
				t.Errorf("call %d: %v", idx, err)
				return
			}
			results[idx] = resp.Bytes()[0]
		})
	}
	if err := r.env.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	r.env.Shutdown()
	for i, v := range results {
		if v != byte(i) {
			t.Fatalf("results=%v", results)
		}
	}
}

func TestRemoteErrorCode(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(3, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 42)
	})
	r.run(t, func(p *sim.Proc) {
		_, err := call(p, r.dpu, 3, nil)
		var ce CallError
		if !errors.As(err, &ce) || ce.Code != 42 {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestUnknownOpReturnsError(t *testing.T) {
	r := newRPCRig(Config{})
	r.run(t, func(p *sim.Proc) {
		_, err := call(p, r.dpu, 99, nil)
		var ce CallError
		if !errors.As(err, &ce) || ce.Code != 0xFFFF {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestNotifyDelivered(t *testing.T) {
	r := newRPCRig(Config{})
	var got []byte
	r.host.Handle(4, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		got = req.Payload.Bytes()
		respond(nil, 0) // no-op for notify
	})
	r.run(t, func(p *sim.Proc) {
		r.dpu.NotifyTask(4, wire.FromBytes([]byte("fire-and-forget")), nil, nil)
		p.Wait(sim.Second)
		if string(got) != "fire-and-forget" {
			t.Fatalf("got=%q", got)
		}
	})
}

type logTask struct {
	log  *[]string
	name string
}

func (l logTask) Run() { *l.log = append(*l.log, l.name) }

// TestNotifyConsumedRunsAfterHandler: a notification's consumed task runs
// once, right after the peer's handler has returned, and never for a message
// no handler takes.
func TestNotifyConsumedRunsAfterHandler(t *testing.T) {
	r := newRPCRig(Config{})
	var log []string
	r.host.Handle(4, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		log = append(log, "handled "+string(req.Payload.Bytes()))
	})
	r.run(t, func(p *sim.Proc) {
		r.dpu.NotifyTask(4, wire.FromBytes([]byte("a")), logTask{&log, "consumed a"}, nil)
		r.dpu.NotifyTask(98, wire.FromBytes([]byte("b")), logTask{&log, "consumed b"}, nil)
		p.Wait(sim.Second)
	})
	if got := strings.Join(log, ", "); got != "handled a, consumed a" {
		t.Fatalf("log: %s", got)
	}
}

type taskFunc func()

func (f taskFunc) Run() { f() }

// call is a call from p: CallTask awaited.
func call(p *sim.Proc, e *Endpoint, op uint16, payload *wire.Bufferlist) (*wire.Bufferlist, error) {
	r := e.CallTask(op, payload, p)
	p.Suspend()
	return r.Result()
}

// transmit is the proc form of sending a message, the oracle's: the sender's
// cost blocks p, and a courier delivers the message at its arrival.
func transmit(p *sim.Proc, e *Endpoint, env *envelope) {
	e.cpu.Exec(p, e.th, e.cost(env))
	e.env.At(e.book(env), env)
}

// notifyThen is the proc form of NotifyTask, the oracle.
func notifyThen(p *sim.Proc, e *Endpoint, op uint16, payload *wire.Bufferlist, consumed sim.Task) {
	e.nextID++
	transmit(p, e, e.newEnvelope(envelope{req: true, notify: true, op: op, reqID: e.nextID, payload: payload, consumed: consumed}))
}

// callProc is the proc form of CallTask, the oracle: the request is
// transmitted, and p waits for its response.
func callProc(p *sim.Proc, e *Endpoint, op uint16, payload *wire.Bufferlist) (*wire.Bufferlist, error) {
	e.nextID++
	r := &Reply{done: sim.NewEvent()}
	e.pending[e.nextID] = r
	transmit(p, e, e.newEnvelope(envelope{req: true, op: op, reqID: e.nextID, payload: payload}))
	e.stats.CallsSent++
	r.done.Wait(p)
	return r.Result()
}

// TestNotifyTaskMatchesNotifyThen: notifications sent from tasks with
// NotifyTask — three at one instant, queueing for the sender's one core and
// the socket — reach the peer's handler at the instants, with the CPU charge,
// the bytes and the event count of the same notifications sent by their proc
// form (notifyThen) from procs spawned at the same slots; and the envelope,
// which carries the task form's state, stays in its 64-byte size class.
func TestNotifyTaskMatchesNotifyThen(t *testing.T) {
	if size := unsafe.Sizeof(envelope{}); size != 64 {
		t.Fatalf("envelope is %d bytes, want 64", size)
	}
	type outcome struct {
		log    []string
		events uint64
		busy   sim.Duration
		sent   int64
	}
	send := func(task bool) (o outcome) {
		env := sim.NewEnv(1)
		dpuCPU := sim.NewCPU(env, "arm", 1, 2.0, 2000)
		dpu, host := New(env, "dpu", dpuCPU, sim.NewThread("proxy-rpc", "proxy"),
			"host", sim.NewCPU(env, "host", 8, 3.7, 2000), sim.NewThread("host-rpc", "rpc-server"), Config{})
		host.Handle(4, func(req Request, _ func(*wire.Bufferlist, uint16)) {
			o.log = append(o.log, fmt.Sprintf("%v handled %s", env.Now(), req.Payload.Bytes()))
		})
		for _, msg := range []string{"a", "bb", "ccc"} {
			payload := wire.FromBytes([]byte(strings.Repeat(msg, 1000)))
			consumed := logTask{&o.log, "consumed " + msg}
			if task {
				env.Delay(0, taskFunc(func() { dpu.NotifyTask(4, payload, consumed, nil) }))
			} else {
				env.Spawn("notify", func(p *sim.Proc) { notifyThen(p, dpu, 4, payload, consumed) })
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		o.events, o.busy, o.sent = env.Events(), dpuCPU.Stats().TotalBusy, dpu.Stats().BytesSent
		env.Shutdown()
		return o
	}
	want, got := send(false), send(true)
	if len(want.log) != 6 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NotifyTask: %+v\nNotifyThen: %+v", got, want)
	}
}

func TestCPUChargedBothSides(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(5, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		if _, err := call(p, r.dpu, 5, wire.FromBytes(make([]byte, 10_000))); err != nil {
			t.Fatal(err)
		}
	})
	if r.hostCPU.Stats().BusyByCat["rpc-server"] <= 0 {
		t.Fatal("host rpc-server CPU not charged")
	}
	if r.dpuCPU.Stats().BusyByCat["proxy"] <= 0 {
		t.Fatal("dpu proxy CPU not charged")
	}
}

func TestLatencyPaidOnWire(t *testing.T) {
	r := newRPCRig(Config{Latency: 100 * sim.Microsecond})
	r.host.Handle(6, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := call(p, r.dpu, 6, nil); err != nil {
			t.Fatal(err)
		}
		if p.Now().Sub(start) < 200*sim.Microsecond {
			t.Fatalf("rtt=%v, want >= 2x latency", p.Now().Sub(start))
		}
	})
}

func TestStatsCounters(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(7, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := call(p, r.dpu, 7, wire.FromBytes(make([]byte, 100))); err != nil {
				t.Fatal(err)
			}
		}
	})
	if r.dpu.Stats().CallsSent != 3 || r.host.Stats().CallsServed != 3 {
		t.Fatalf("dpu=%+v host=%+v", r.dpu.Stats(), r.host.Stats())
	}
	if r.dpu.Stats().BytesSent == 0 || r.host.Stats().BytesRecv < r.dpu.Stats().BytesSent {
		t.Fatalf("bytes: %+v / %+v", r.dpu.Stats(), r.host.Stats())
	}
}

// TestCallTaskMatchesCall: calls made from tasks with CallTask — three at one
// instant, queueing for the caller's one core and the socket; one answered,
// one answered with an error code, one that no handler takes — get their
// responses at the instants, with the results, the CPU charge, the bytes and
// the event count of the same calls made by its proc form (callProc) from
// procs spawned at the same slots; so do procs awaiting CallTask.
func TestCallTaskMatchesCall(t *testing.T) {
	type outcome struct {
		log    []string
		events uint64
		busy   sim.Duration
		sent   int64
		calls  int64
	}
	calls := func(form string) (o outcome) {
		env := sim.NewEnv(1)
		dpuCPU := sim.NewCPU(env, "arm", 1, 2.0, 2000)
		dpu, host := New(env, "dpu", dpuCPU, sim.NewThread("proxy-rpc", "proxy"),
			"host", sim.NewCPU(env, "host", 8, 3.7, 2000), sim.NewThread("host-rpc", "rpc-server"), Config{})
		host.Handle(1, func(req Request, respond func(*wire.Bufferlist, uint16)) {
			respond(wire.FromBytes(append([]byte("echo:"), req.Payload.Bytes()[:3]...)), 0)
		})
		host.Handle(2, func(req Request, respond func(*wire.Bufferlist, uint16)) {
			respond(nil, 42)
		})
		done := func(op uint16, resp *wire.Bufferlist, err error) {
			got := "<nil>"
			if resp != nil {
				got = string(resp.Bytes())
			}
			o.log = append(o.log, fmt.Sprintf("%v op %d: %s, %v", env.Now(), op, got, err))
		}
		for i, op := range []uint16{1, 2, 99} {
			payload := wire.FromBytes([]byte(strings.Repeat(fmt.Sprint(i), 1000)))
			if form == "task" {
				env.Delay(0, taskFunc(func() {
					var r *Reply
					r = dpu.CallTask(op, payload, taskFunc(func() {
						resp, err := r.Result()
						done(op, resp, err)
					}))
				}))
			} else {
				env.Spawn("call", func(p *sim.Proc) {
					f := callProc
					if form == "await" {
						f = call
					}
					resp, err := f(p, dpu, op, payload)
					done(op, resp, err)
				})
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		o.events, o.busy, o.sent, o.calls = env.Events(), dpuCPU.Stats().TotalBusy, dpu.Stats().BytesSent, dpu.Stats().CallsSent
		env.Shutdown()
		return o
	}
	want := calls("proc")
	for _, form := range []string{"task", "await"} {
		if got := calls(form); len(want.log) != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("CallTask (%s): %+v\ncallProc: %+v", form, got, want)
		}
	}
}

// TestChargeHoldsTheServer: a handler's Charge, and one its then makes, run
// on the endpoint's thread once the handler has returned, each then handed the
// busy time its burst charged, and the server takes its next message only
// after them; a Charge outside a handler panics.
func TestChargeHoldsTheServer(t *testing.T) {
	r := newRPCRig(Config{})
	const cycles = 37_000 // 10us at 3.7 GHz
	var log []string
	var doneAt sim.Time
	r.host.Handle(1, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		log = append(log, "handle "+string(req.Payload.Bytes()))
		if len(log) > 1 && r.env.Now() < doneAt {
			t.Errorf("second message handled at %v, before the first's charges ended at %v", r.env.Now(), doneAt)
		}
		r.host.Charge(cycles, func(busy sim.Duration) {
			log = append(log, "charged "+string(req.Payload.Bytes()))
			r.host.Charge(cycles, func(busy2 sim.Duration) {
				if busy < 10*sim.Microsecond || busy2 < 10*sim.Microsecond {
					t.Errorf("bursts charged %v and %v, want at least 10us each", busy, busy2)
				}
				doneAt = r.env.Now()
				respond(nil, 0)
			})
		})
	})
	for _, msg := range []string{"a", "b"} {
		r.env.Spawn("call", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("c", "proxy"))
			if _, err := call(p, r.dpu, 1, wire.FromBytes([]byte(msg))); err != nil {
				t.Error(err)
			}
		})
	}
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, ", "); got != "handle a, charged a, handle b, charged b" {
		t.Fatalf("log: %s", got)
	}
	r.env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Charge outside a handler did not panic")
		}
	}()
	r.host.Charge(cycles, func(sim.Duration) {})
}

// TestChargeThenReadsItsRequest: a handler's Charge continuation, run after
// the charge's burst, still reads the request it was handed — payload and
// request id — while the calls behind it wait in the input queue and their
// envelopes come and go on the free list. The envelope of the message being
// handled is the server's until its turn ends; one put back as it is
// delivered hands the server a zeroed record, and no handler runs.
func TestChargeThenReadsItsRequest(t *testing.T) {
	r := newRPCRig(Config{})
	ids := map[uint64]string{}
	r.host.Handle(1, func(req Request, respond func(*wire.Bufferlist, uint16)) {
		ids[req.ReqID] = string(req.Payload.Bytes())
		r.host.Charge(37_000, func(sim.Duration) {
			if got := string(req.Payload.Bytes()); got != ids[req.ReqID] {
				t.Errorf("request %d reads %q after its charge, was %q", req.ReqID, got, ids[req.ReqID])
			}
			respond(wire.FromBytes([]byte(fmt.Sprintf("%d:%s", req.ReqID, req.Payload.Bytes()))), 0)
		})
	})
	got := map[string]string{}
	for _, msg := range []string{"a", "b", "c"} {
		r.env.Spawn("call", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("c", "proxy"))
			resp, err := call(p, r.dpu, 1, wire.FromBytes([]byte(msg)))
			if err != nil {
				t.Error(err)
				return
			}
			got[msg] = string(resp.Bytes())
		})
	}
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	r.env.Shutdown()
	if len(ids) != 3 || got["a"] != "1:a" || got["b"] != "2:b" || got["c"] != "3:c" {
		t.Fatalf("handled %v, responses %v: want requests 1, 2 and 3 echoed by their own continuations", ids, got)
	}
	if err := r.dpu.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestNotifyTaskRecyclesEnvelope: once the free lists, queues and the
// kernel's pools have their size, a NotifyTask — the sender's burst, the
// booking, the delivery into the peer's queue, the handler and the consumed
// task — allocates nothing: the envelope goes back as the peer's server ends
// its turn on it. Every envelope made is back once the channel is idle.
func TestNotifyTaskRecyclesEnvelope(t *testing.T) {
	r := newRPCRig(Config{})
	defer r.env.Shutdown()
	handled := 0
	r.host.Handle(4, func(Request, func(*wire.Bufferlist, uint16)) { handled++ })
	payload := wire.FromBytes(make([]byte, 18))
	var consumed taskFunc = func() {}
	notify := func() {
		r.dpu.NotifyTask(4, payload, consumed, nil)
		if err := r.env.RunUntil(r.env.Now().Add(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		notify()
	}
	if allocs := testing.AllocsPerRun(100, notify); allocs != 0 {
		t.Fatalf("%.1f allocations per steady-state NotifyTask, want 0", allocs)
	}
	if handled != 111 {
		t.Fatalf("%d notifications handled, want 111", handled)
	}
	if err := r.dpu.Quiescent(); err != nil {
		t.Fatal(err)
	}
	if made := r.dpu.envs.Made(); made != 1 {
		t.Fatalf("%d envelopes made for notifications sent one at a time, want 1", made)
	}
}
