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
// committed, or a read, a stat or an exists of coll/obj.
type storeStep struct {
	txn       *objstore.Transaction
	op        string // "read", "stat", "exists"
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
		read("c", "big", 0, 0), {op: "exists", coll: "c", obj: "big"},
	}, {
		read("c", "small", 0, 0), {op: "exists", coll: "c", obj: "small"}, {op: "stat", coll: "c", obj: "big"},
		read("c", "big", 0, 4096), read("c", "small", 1<<20, 10), read("nowhere", "small", 0, 0),
		{op: "stat", coll: "nowhere", obj: "x"}, {op: "exists", coll: "c", obj: "small"},
		read("c", "big", 0, 0), read("c", "small", 0, 0),
	}}
}

// TestTaskFormsMatchProcForms: two clients running the same scripts on a
// store with one contended core — once as procs calling QueueTransaction,
// Read, Stat and Exists, once as task chains calling their task forms on a
// reused objstore.Call — get the same answers at the same instants, fire the
// same events, and the chains' call records all go back to the free list.
func TestTaskFormsMatchProcForms(t *testing.T) {
	run := func(chains bool) (log [2][]string, events uint64) {
		env := sim.NewEnv(1)
		cpu := sim.NewCPU(env, "host", 1, 3.0, 2000)
		s := New(env, "s0", cpu, sim.NewDisk(env, "ssd", 500e6, 1000e6, 20*sim.Microsecond), Config{})
		for i, script := range storeScripts() {
			th := sim.NewThread(fmt.Sprint("client", i), "test")
			if chains {
				env.Delay(0, &storeClient{s: s, th: th, script: script, log: &log[i]})
				continue
			}
			env.Spawn(th.Name, func(p *sim.Proc) {
				p.SetThread(th)
				for _, st := range script {
					var c objstore.Call
					switch {
					case st.txn != nil:
						c.Result = s.QueueTransaction(p, st.txn)
						c.Result.Done.Wait(p)
					case st.op == "read":
						c.Data, c.Err = s.Read(p, st.coll, st.obj, st.off, st.n)
					case st.op == "stat":
						c.Stat, c.Err = s.Stat(p, st.coll, st.obj)
					default:
						c.Exists = s.Exists(p, st.coll, st.obj)
					}
					log[i] = append(log[i], outcome(p.Now(), st, &c))
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if chains && len(s.calls) == 0 {
			t.Error("no call record went back to the free list")
		}
		events = env.Events()
		env.Shutdown()
		return log, events
	}
	want, wantEvents := run(false)
	got, gotEvents := run(true)
	if !reflect.DeepEqual(got, want) || gotEvents != wantEvents {
		t.Fatalf("task forms: %d events\n%q\nproc forms: %d events\n%q", gotEvents, got, wantEvents, want)
	}
	t.Logf("%d events; %s", gotEvents, want[0][2])
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
	// phase is 0 to make the step's call, 1 once it has answered, 2 once a
	// transaction has committed too.
	phase int
}

func (sc *storeClient) Run() {
	for sc.i < len(sc.script) {
		st := sc.script[sc.i]
		switch sc.phase {
		case 0:
			sc.c = objstore.Call{Txn: st.txn, Coll: st.coll, Object: st.obj, Off: st.off, Length: st.n}
			sc.phase = 1
			var waits bool
			switch {
			case st.txn != nil:
				waits = sc.s.QueueTransactionThen(sc.th, &sc.c, sc)
			case st.op == "read":
				waits = sc.s.ReadThen(sc.th, &sc.c, sc)
			case st.op == "stat":
				waits = sc.s.StatThen(sc.th, &sc.c, sc)
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
