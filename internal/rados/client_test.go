package rados

import (
	"errors"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/crush"
	"doceph/internal/messenger"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// fakeOSD is a scriptable OSD stand-in for exercising the client's retry
// and redirect machinery without a full cluster.
type fakeOSD struct {
	env    *sim.Env
	msgr   *messenger.Messenger
	mode   string // "ok", "drop", "wrongPrimary", "notfound", "dup", "slowOnce"
	served int
}

func (f *fakeOSD) dispatch(p *sim.Proc, src string, m cephmsg.Message) {
	op, ok := m.(*cephmsg.MOSDOp)
	if !ok {
		return
	}
	f.served++
	switch f.mode {
	case "drop":
		return
	case "dup":
		// Reply twice: the second copy must land as a stale reply.
		for i := 0; i < 2; i++ {
			f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
				Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42})
		}
	case "slowOnce":
		// First request answers late (after the client's timeout+resend);
		// later requests answer immediately.
		reply := &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42}
		if f.served == 1 {
			f.env.Spawn("late-reply", func(lp *sim.Proc) {
				lp.Wait(5 * sim.Second)
				f.msgr.Send(src, reply)
			})
			return
		}
		f.msgr.Send(src, reply)
	case "wrongPrimary":
		f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResNotPrimary})
	case "notfound":
		f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResNotFound})
	default:
		reply := &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42}
		if op.Op == cephmsg.OpRead {
			reply.Data = wire.FromBytes([]byte("fake-object-content"))
		}
		f.msgr.Send(src, reply)
	}
}

type clientRig struct {
	env    *sim.Env
	client *Client
	osds   []*fakeOSD
}

// newClientRig builds a 2-OSD world where every request lands on one of the
// two fakes.
func newClientRig(cfg Config) *clientRig {
	env := sim.NewEnv(5)
	fabric := sim.NewFabric(env, "eth", sim.Microsecond)
	fabric.AddNode("n", 12.5e9)
	reg := messenger.NewRegistry()
	cpu := sim.NewCPU(env, "cpu", 8, 3.0, 2000)
	r := &clientRig{env: env}
	for i := 0; i < 2; i++ {
		f := &fakeOSD{env: env}
		f.msgr = messenger.New(env, reg, fabric, cpu, Name(i), "n", messenger.Config{})
		f.msgr.SetDispatcher(f.dispatch)
		r.osds = append(r.osds, f)
	}
	cmsgr := messenger.New(env, reg, fabric, cpu, "client.0", "n", messenger.Config{})
	m := osdmap.New(crush.BuildUniform(2, 1, 1.0), 16, 1)
	r.client = New(env, cpu, cmsgr, m, cfg)
	return r
}

// Name mirrors osd.Name without importing the osd package (avoiding a
// dependency from the client's tests on the daemon).
func Name(i int) string {
	return map[int]string{0: "osd.0", 1: "osd.1"}[i]
}

func (r *clientRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("body", ThreadCat))
		body(p)
		done = true
	})
	err := r.env.RunUntil(sim.Time(20 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	r.env.Shutdown()
}

func TestClientHappyPath(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("data"))); err != nil {
			t.Fatal(err)
		}
		size, ver, err := r.client.Stat(p, "obj")
		if err != nil || size != 42 || ver != 1 {
			t.Fatalf("stat size=%d ver=%d err=%v", size, ver, err)
		}
	})
	if r.osds[0].served+r.osds[1].served != 2 {
		t.Fatalf("served=%d+%d", r.osds[0].served, r.osds[1].served)
	}
}

func TestClientTimesOutAndRetries(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 2})
	for _, f := range r.osds {
		f.mode = "drop"
	}
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		err := r.client.Write(p, "obj", wire.FromBytes([]byte("x")))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err=%v", err)
		}
		// 3 attempts x (2s timeout + 1s backoff).
		if elapsed := p.Now().Sub(start); elapsed < 6*sim.Second {
			t.Fatalf("gave up too fast: %v", elapsed)
		}
	})
	total := r.osds[0].served + r.osds[1].served
	if total != 3 {
		t.Fatalf("attempts=%d want 3", total)
	}
}

func TestClientCountsDuplicateReplyAsStale(t *testing.T) {
	r := newClientRig(Config{})
	for _, f := range r.osds {
		f.mode = "dup"
	}
	r.run(t, func(p *sim.Proc) {
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		p.Wait(sim.Second) // let the duplicate drain through dispatch
		if got := r.client.Stats().StaleReplies; got != 1 {
			t.Fatalf("StaleReplies=%d want 1", got)
		}
	})
}

func TestClientResendIsIdempotentAndLateReplyIsStale(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 2,
		RetryBackoff: 500 * sim.Millisecond})
	for _, f := range r.osds {
		f.mode = "slowOnce"
	}
	r.run(t, func(p *sim.Proc) {
		// Attempt 1 at t=0 times out at 2s; the resend at 2.5s succeeds
		// under the same tid. The late reply from attempt 1 lands at 5s,
		// after the op is retired, and must count as stale — not complete
		// (or corrupt) some other op.
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		p.Wait(10 * sim.Second) // outlive the late reply
		st := r.client.Stats()
		if st.Timeouts != 1 || st.Retries != 1 {
			t.Fatalf("timeouts=%d retries=%d want 1/1", st.Timeouts, st.Retries)
		}
		if st.StaleReplies != 1 {
			t.Fatalf("StaleReplies=%d want 1", st.StaleReplies)
		}
	})
	if total := r.osds[0].served + r.osds[1].served; total != 2 {
		t.Fatalf("served=%d want 2", total)
	}
}

func TestClientRetriesOnWrongPrimary(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 3})
	for _, f := range r.osds {
		f.mode = "wrongPrimary"
	}
	r.run(t, func(p *sim.Proc) {
		err := r.client.Write(p, "obj", wire.FromBytes([]byte("x")))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err=%v", err)
		}
	})
	if total := r.osds[0].served + r.osds[1].served; total != 4 {
		t.Fatalf("attempts=%d want 4 (1 + 3 retries)", total)
	}
}

func TestClientSurfacesNotFound(t *testing.T) {
	r := newClientRig(Config{})
	for _, f := range r.osds {
		f.mode = "notfound"
	}
	r.run(t, func(p *sim.Proc) {
		if _, err := r.client.Read(p, "ghost", 0, 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		if err := r.client.Delete(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestClientMapUpdateViaBroadcast(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		if r.client.Map().Epoch != 1 {
			t.Fatalf("epoch=%d", r.client.Map().Epoch)
		}
		// Simulate a monitor broadcast dropping osd.1.
		r.osds[0].msgr.Send("client.0", &cephmsg.MOSDMap{Epoch: 5, Up: []int32{0}})
		p.Wait(sim.Second)
		if r.client.Map().Epoch != 5 || r.client.Map().IsUp(1) {
			t.Fatalf("epoch=%d up1=%v", r.client.Map().Epoch, r.client.Map().IsUp(1))
		}
		// Stale broadcasts are ignored.
		r.osds[0].msgr.Send("client.0", &cephmsg.MOSDMap{Epoch: 3, Up: []int32{0, 1}})
		p.Wait(sim.Second)
		if r.client.Map().Epoch != 5 {
			t.Fatalf("stale epoch applied: %d", r.client.Map().Epoch)
		}
	})
}

func TestClientNoOSDError(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		next := r.client.Map().Next()
		next.MarkDown(0)
		next.MarkDown(1)
		r.client.curMap = next
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); !errors.Is(err, ErrNoOSD) {
			t.Fatalf("err=%v", err)
		}
	})
}
