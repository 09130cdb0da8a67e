package objstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

// echoStore answers every task-form call from its inputs and the calling
// thread, after delay, or at once when delay is zero: the Store contract with
// none of a real store's costs.
type echoStore struct {
	env   *sim.Env
	delay sim.Duration
}

type taskFunc func()

func (f taskFunc) Run() { f() }

// answer fills c by fill, and runs next after the delay, reporting that it
// registered it, or reports at once that it did not.
func (s *echoStore) answer(c *Call, next sim.Task, fill func()) bool {
	if s.delay == 0 {
		fill()
		return false
	}
	s.env.Delay(s.delay, taskFunc(func() { fill(); next.Run() }))
	return true
}

// found is the error a call on obj answers.
func found(obj string) error {
	if obj == "missing" {
		return ErrNotFound
	}
	return nil
}

func (s *echoStore) QueueTransaction(p *sim.Proc, txn *Transaction) *Result {
	res := new(Result)
	Queue(p, s, txn, res)
	return res
}

func (s *echoStore) QueueTransactionThen(th *sim.Thread, c *Call, next sim.Task) bool {
	return s.answer(c, next, func() { c.Result.ServiceTime = sim.Duration(len(c.Txn.Ops)) })
}

func (s *echoStore) ReadThen(th *sim.Thread, c *Call, next sim.Task) bool {
	return s.answer(c, next, func() {
		if c.Err = found(c.Object); c.Err == nil {
			c.Data = wire.FromBytes([]byte(fmt.Sprintf("%s:%s/%s %d+%d", th.Name, c.Coll, c.Object, c.Off, c.Length)))
		}
	})
}

func (s *echoStore) StatThen(th *sim.Thread, c *Call, next sim.Task) bool {
	return s.answer(c, next, func() { c.Stat, c.Err = StatInfo{Size: uint64(len(c.Object))}, found(c.Object) })
}

func (s *echoStore) ExistsThen(th *sim.Thread, c *Call, next sim.Task) bool {
	return s.answer(c, next, func() { c.Exists = found(c.Object) == nil })
}

func (s *echoStore) ListThen(th *sim.Thread, c *Call, next sim.Task) bool {
	return s.answer(c, next, func() { c.Names = []string{c.Coll, th.Name} })
}

// TestProcCallsAwaitTaskForms: the package functions hand a task form the
// proc's inputs and thread and return its answers, resuming the proc where
// the answer came — at once when the call did not register the proc, after
// the store's delay when it did — each on a Call from the partition's free
// list, the same one call after call, put back zeroed.
func TestProcCallsAwaitTaskForms(t *testing.T) {
	for _, delay := range []sim.Duration{0, sim.Microsecond} {
		env := sim.NewEnv(1)
		st := &echoStore{env: env, delay: delay}
		done := false
		env.Spawn("caller", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("th", "test"))
			if res := st.QueueTransaction(p, NewTransaction().MkColl("c").MkColl("d")); res.ServiceTime != 2 {
				t.Errorf("delay %v: Queue answered %+v", delay, res)
			}
			if bl, err := Read(p, st, "c", "o", 3, 4); err != nil || string(bl.Bytes()) != "th:c/o 3+4" {
				t.Errorf("delay %v: Read = %v, %v", delay, bl, err)
			}
			if bl, err := Read(p, st, "c", "missing", 0, 0); !errors.Is(err, ErrNotFound) || bl != nil {
				t.Errorf("delay %v: Read of a missing object = %v, %v", delay, bl, err)
			}
			if info, err := Stat(p, st, "c", "obj"); err != nil || info.Size != 3 {
				t.Errorf("delay %v: Stat = %+v, %v", delay, info, err)
			}
			if !Exists(p, st, "c", "o") || Exists(p, st, "c", "missing") {
				t.Errorf("delay %v: Exists answered wrong", delay)
			}
			if names, err := List(p, st, "c"); err != nil || !reflect.DeepEqual(names, []string{"c", "th"}) {
				t.Errorf("delay %v: List = %q, %v", delay, names, err)
			}
			if now := p.Now(); now != sim.Time(7*delay) {
				t.Errorf("delay %v: the calls ended at %v, want %v", delay, now, sim.Time(7*delay))
			}
			done = true
		})
		if err := env.Run(); err != nil || !done {
			t.Fatalf("delay %v: run ended with %v, caller done: %v", delay, err, done)
		}
		if l := sim.Local[calls](env); l.Made() != 1 || l.Listed() != 1 || !reflect.DeepEqual(*l.Get(), Call{}) {
			t.Fatalf("delay %v: %d Calls made, %d listed after the calls, want one, zeroed", delay, l.Made(), l.Listed())
		}
	}
}
