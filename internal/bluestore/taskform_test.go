package bluestore

import (
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// storeStep is one call of a client's script: a transaction it waits to see
// committed, a read, a stat or an exists of coll/obj, or a list of coll.
type storeStep struct {
	txn       *objstore.Transaction
	op        string // "read", "stat", "exists", "list"
	coll, obj string
	off, n    uint64
}

// outcome is what a step's call answered, with the instant it did.
func outcome(now sim.Time, s storeStep, c *objstore.Call) string {
	switch {
	case s.txn != nil:
		return fmt.Sprintf("%d commit err=%v", now, c.Result.Err)
	case s.op == "read":
		var data []byte
		if c.Data != nil {
			data = c.Data.Bytes()
		}
		return fmt.Sprintf("%d read %s/%s [%d+%d] err=%v crc=%x len=%d", now, s.coll, s.obj, s.off, s.n, c.Err,
			wire.FromBytes(data).CRC32C(), len(data))
	case s.op == "stat":
		return fmt.Sprintf("%d stat %s/%s %+v err=%v", now, s.coll, s.obj, c.Stat, c.Err)
	case s.op == "list":
		return fmt.Sprintf("%d list %s %q err=%v", now, s.coll, c.Names, c.Err)
	}
	return fmt.Sprintf("%d exists %s/%s %v", now, s.coll, s.obj, c.Exists)
}

// storeScripts are two clients' calls on one store: collections and objects
// made, written over and removed while the other client reads, stats and
// looks them up — present, missing, in a missing collection, ranged, past the
// end and to EOF, small and large enough to stream from the device.
func storeScripts() [2][]storeStep {
	big, small := seeded(3<<20, 1), seeded(4096, 2)
	read := func(coll, obj string, off, n uint64) storeStep {
		return storeStep{op: "read", coll: coll, obj: obj, off: off, n: n}
	}
	return [2][]storeStep{{
		{txn: objstore.NewTransaction().MkColl("c")},
		{txn: (&objstore.Transaction{}).Write("c", "big", 0, big).Write("c", "small", 0, small)},
		read("c", "big", 0, 0), read("c", "small", 100, 200), read("c", "big", 1<<20, 1<<20),
		{txn: objstore.NewTransaction().Write("c", "small", 2048, small)},
		{op: "stat", coll: "c", obj: "small"}, read("c", "small", 0, 0),
		{txn: objstore.NewTransaction().Remove("c", "big")},
		read("c", "big", 0, 0), {op: "exists", coll: "c", obj: "big"}, {op: "list", coll: "c"},
	}, {
		read("c", "small", 0, 0), {op: "exists", coll: "c", obj: "small"}, {op: "stat", coll: "c", obj: "big"},
		read("c", "big", 0, 4096), read("c", "small", 1<<20, 10), read("nowhere", "small", 0, 0),
		{op: "stat", coll: "nowhere", obj: "x"}, {op: "exists", coll: "c", obj: "small"},
		{op: "list", coll: "c"}, read("c", "big", 0, 0), {op: "list", coll: "nowhere"}, read("c", "small", 0, 0),
	}}
}

// procCall makes st's call as the store's proc forms did before its task
// forms were its only implementation, the oracle: the lookup charged to p's
// thread (CPU.ExecSelf), then, for a read, its copy and the device read.
func procCall(p *sim.Proc, s *Store, st storeStep) (c objstore.Call) {
	s.cpu.ExecSelf(p, LookupCycles)
	switch st.op {
	case "stat":
		c.Stat, c.Err = s.Lookup(st.coll, st.obj)
	case "exists":
		_, err := s.find(st.coll, st.obj)
		c.Exists = err == nil
	case "list":
		c.Names, c.Err = s.Names(st.coll)
	default:
		o, err := s.find(st.coll, st.obj)
		switch {
		case err != nil:
			c.Err = err
		case st.off >= o.size:
			c.Data = &wire.Bufferlist{}
		default:
			length := readLength(o, st.off, st.n)
			s.cpu.ExecSelf(p, readCycles(length))
			if _, registered := s.disk.ReadThen(int64(length), p); registered {
				p.Suspend() // sim's chain test holds the awaited Disk.ReadThen to its proc form
			}
			s.stats.BytesRead += int64(length)
			c.Data = o.readRange(nil, st.off, length)
		}
	}
	return c
}

// TestTaskFormsMatchProcForms: two clients running the same scripts on a
// store with one contended core — as procs making each call by the proc form
// it had (procCall, and QueueTransaction), as procs awaiting the task forms
// (objstore.Queue into a Result of their own, Read, Stat, Exists and List),
// and as task chains calling the task forms on a reused objstore.Call — get
// the same answers at the same instants and fire the same events, and the
// call records and txcs all go back to the free lists.
func TestTaskFormsMatchProcForms(t *testing.T) {
	run := func(form string) (log [2][]string, events uint64) {
		env := sim.NewEnv(1)
		cpu := sim.NewCPU(env, "host", 1, 3.0, 2000)
		s := New(env, "s0", cpu, sim.NewDisk(env, "ssd", 500e6, 1000e6, 20*sim.Microsecond), Config{})
		for i, script := range storeScripts() {
			th := sim.NewThread(fmt.Sprint("client", i), "test")
			if form == "chain" {
				env.Delay(0, &storeClient{s: s, th: th, script: script, log: &log[i]})
				continue
			}
			env.Spawn(th.Name, func(p *sim.Proc) {
				p.SetThread(th)
				for _, st := range script {
					var c objstore.Call
					switch {
					case st.txn != nil && form == "await":
						c.Result = new(objstore.Result)
						objstore.Queue(p, s, st.txn, c.Result)
						c.Result.Done.Wait(p)
					case st.txn != nil:
						c.Result = s.QueueTransaction(p, st.txn)
						c.Result.Done.Wait(p)
					case form == "proc":
						c = procCall(p, s, st)
					case st.op == "read":
						c.Data, c.Err = objstore.Read(p, s, st.coll, st.obj, st.off, st.n)
					case st.op == "stat":
						c.Stat, c.Err = objstore.Stat(p, s, st.coll, st.obj)
					case st.op == "list":
						c.Names, c.Err = objstore.List(p, s, st.coll)
					default:
						c.Exists = objstore.Exists(p, s, st.coll, st.obj)
					}
					log[i] = append(log[i], outcome(p.Now(), st, &c))
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if form != "proc" && s.calls.Listed() == 0 {
			t.Errorf("%s: no call record went back to the free list", form)
		}
		if out := env.RecordsOut(); out != nil || s.txcs.Listed() == 0 {
			t.Errorf("%s: %d txcs listed; records out: %v", form, s.txcs.Listed(), out)
		}
		events = env.Events()
		env.Shutdown()
		return log, events
	}
	want, wantEvents := run("proc")
	for _, form := range []string{"await", "chain"} {
		got, gotEvents := run(form)
		if !reflect.DeepEqual(got, want) || gotEvents != wantEvents {
			t.Fatalf("%s: %d events\n%q\nproc forms: %d events\n%q", form, gotEvents, got, wantEvents, want)
		}
	}
	t.Logf("%d events; %s", wantEvents, want[0][2])
}

// storeClient runs a script as a task chain: each call by its task form on
// one reused Call, a transaction's commit waited for with Event.WaitThen.
type storeClient struct {
	s      *Store
	th     *sim.Thread
	script []storeStep
	log    *[]string
	i      int
	c      objstore.Call
	res    objstore.Result
	// phase is 0 to make the step's call, 1 once it has answered, 2 once a
	// transaction has committed too.
	phase int
}

func (sc *storeClient) Run() {
	for sc.i < len(sc.script) {
		st := sc.script[sc.i]
		switch sc.phase {
		case 0:
			sc.res = objstore.Result{}
			sc.c = objstore.Call{Txn: st.txn, Result: &sc.res, Coll: st.coll, Object: st.obj, Off: st.off, Length: st.n}
			sc.phase = 1
			var waits bool
			switch {
			case st.txn != nil:
				waits = sc.s.QueueTransactionThen(sc.th, &sc.c, sc)
			case st.op == "read":
				waits = sc.s.ReadThen(sc.th, &sc.c, sc)
			case st.op == "stat":
				waits = sc.s.StatThen(sc.th, &sc.c, sc)
			case st.op == "list":
				waits = sc.s.ListThen(sc.th, &sc.c, sc)
			default:
				waits = sc.s.ExistsThen(sc.th, &sc.c, sc)
			}
			if waits {
				return
			}
		case 1:
			sc.phase = 2
			if st.txn != nil && sc.c.Result.Done.WaitThen(sc.s.env, sc) {
				return
			}
		case 2:
			*sc.log = append(*sc.log, outcome(sc.s.env.Now(), st, &sc.c))
			sc.i, sc.phase = sc.i+1, 0
		}
	}
}

// seeded is n bytes of a pattern that depends on seed.
func seeded(n int, seed byte) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*31)
	}
	return wire.FromBytes(b)
}
