package rpcchan

import (
	"errors"
	"testing"

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
	r.host.Handle(1, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(wire.FromBytes(append([]byte("echo:"), req.Payload.Bytes()...)), 0)
	})
	r.run(t, func(p *sim.Proc) {
		resp, err := r.dpu.Call(p, 1, wire.FromBytes([]byte("hello")))
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
	r.host.Handle(2, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		// Respond asynchronously with a delay inversely ordered to arrival,
		// forcing out-of-order responses.
		payload := req.Payload.Clone()
		d := sim.Duration(100-payload.Bytes()[0]) * sim.Millisecond
		p.Env().Spawn("responder", func(cp *sim.Proc) {
			cp.Wait(d)
			respond(payload, 0)
		})
	})
	results := make([]byte, 3)
	for i := 0; i < 3; i++ {
		idx := i
		r.env.Spawn("caller", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("c", "proxy"))
			resp, err := r.dpu.Call(p, 2, wire.FromBytes([]byte{byte(idx)}))
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
	r.host.Handle(3, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 42)
	})
	r.run(t, func(p *sim.Proc) {
		_, err := r.dpu.Call(p, 3, nil)
		var ce CallError
		if !errors.As(err, &ce) || ce.Code != 42 {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestUnknownOpReturnsError(t *testing.T) {
	r := newRPCRig(Config{})
	r.run(t, func(p *sim.Proc) {
		_, err := r.dpu.Call(p, 99, nil)
		var ce CallError
		if !errors.As(err, &ce) || ce.Code != 0xFFFF {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestNotifyDelivered(t *testing.T) {
	r := newRPCRig(Config{})
	var got []byte
	r.host.Handle(4, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		got = req.Payload.Bytes()
		respond(nil, 0) // no-op for notify
	})
	r.run(t, func(p *sim.Proc) {
		r.dpu.Notify(p, 4, wire.FromBytes([]byte("fire-and-forget")))
		p.Wait(sim.Second)
		if string(got) != "fire-and-forget" {
			t.Fatalf("got=%q", got)
		}
	})
}

func TestCPUChargedBothSides(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(5, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.dpu.Call(p, 5, wire.FromBytes(make([]byte, 10_000))); err != nil {
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
	r.host.Handle(6, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := r.dpu.Call(p, 6, nil); err != nil {
			t.Fatal(err)
		}
		if p.Now().Sub(start) < 200*sim.Microsecond {
			t.Fatalf("rtt=%v, want >= 2x latency", p.Now().Sub(start))
		}
	})
}

func TestStatsCounters(t *testing.T) {
	r := newRPCRig(Config{})
	r.host.Handle(7, func(p *sim.Proc, req Request, respond func(*wire.Bufferlist, uint16)) {
		respond(nil, 0)
	})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := r.dpu.Call(p, 7, wire.FromBytes(make([]byte, 100))); err != nil {
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
