package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFifoMatchesSliceModel drives the ring against a plain slice through
// growth, wrap-around and full drains, and checks after every step that no
// slot outside the live window holds anything (a popped pointer left behind
// would keep its target reachable for the life of the ring).
func TestFifoMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f fifo[*int]
		var model []*int
		for step := 0; step < 2000; step++ {
			// Phases of mostly-push and mostly-pop, so the ring grows to a
			// few hundred slots, drains, and wraps at every capacity.
			pushBias := 70
			if (step/250)%2 == 1 {
				pushBias = 30
			}
			if rng.Intn(100) < pushBias {
				v := new(int)
				*v = step
				f.push(v)
				model = append(model, v)
			} else if len(model) > 0 {
				if got := f.front(); got != model[0] {
					t.Fatalf("seed %d step %d: front %d, want %d", seed, step, *got, *model[0])
				}
				if got := f.pop(); got != model[0] {
					t.Fatalf("seed %d step %d: pop %d, want %d", seed, step, *got, *model[0])
				}
				model = model[1:]
			}
			if f.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, f.len(), len(model))
			}
			if n := len(f.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d step %d: capacity %d is not a power of two", seed, step, n)
			}
			live := 0
			for _, s := range f.buf {
				if s != nil {
					live++
				}
			}
			if live != len(model) {
				t.Fatalf("seed %d step %d: %d slots in use for %d elements", seed, step, live, len(model))
			}
		}
	}
}

// sliceQueue is the queue this package had before the ring: value buffer and
// waiter list are slices consumed by reslicing, and a blocked Pop, awaiting
// its continuation as Queue's does, receives its value and its outcome
// through pointers to its own result variables. It stays here as the model
// the ring-based Queue is compared against.
type sliceQueue[T any] struct {
	env     *Env
	buf     []T
	waiters []sliceWaiter[T]
}

type sliceWaiter[T any] struct {
	tok  *wakeToken
	slot *T
	ok   *bool
}

func (q *sliceQueue[T]) Push(v T) {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.tok.spent {
			q.env.dropRef(w.tok)
			continue
		}
		*w.slot, *w.ok = v, true
		q.env.grant(w.tok)
		q.env.dropRef(w.tok)
		return
	}
	q.buf = append(q.buf, v)
}

func (q *sliceQueue[T]) TryPop() (v T, ok bool) {
	if len(q.buf) == 0 {
		return v, false
	}
	v, q.buf = q.buf[0], q.buf[1:]
	return v, true
}

func (q *sliceQueue[T]) PopTimeout(p *Proc, timeout Duration) (v T, ok bool) {
	if v, ok := q.TryPop(); ok {
		return v, true
	}
	tok := q.env.continuation(p)
	tok.refs++
	q.waiters = append(q.waiters, sliceWaiter[T]{tok: tok, slot: &v, ok: &ok})
	if timeout >= 0 {
		q.env.timeout(tok, timeout)
	}
	p.Suspend()
	return v, ok
}

// popper is what the two queues have in common for the comparison below; a
// negative timeout is the untimed blocking Pop.
type popper interface {
	Push(int)
	TryPop() (int, bool)
	PopTimeout(*Proc, Duration) (int, bool)
}

// queueScript runs a seeded mix of consumers (blocking, timed, polling) and
// bursty producers against q and returns who received what, when.
func queueScript(t *testing.T, seed int64, mk func(*Env) popper) string {
	t.Helper()
	env := NewEnv(seed)
	defer env.Shutdown()
	q := mk(env)
	var log strings.Builder
	const consumers, producers, rounds = 7, 3, 60
	for c := 0; c < consumers; c++ {
		rng := rand.New(rand.NewSource(seed*100 + int64(c)))
		env.Spawn(fmt.Sprintf("c%d", c), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				var v int
				var ok bool
				switch rng.Intn(4) {
				case 0:
					v, ok = q.TryPop()
				case 1:
					v, ok = q.PopTimeout(p, -1) // blocks until a push
				default:
					// Timeouts a few microseconds around the producers'
					// pace, so some expire mid-ring and are skipped later.
					v, ok = q.PopTimeout(p, Duration(rng.Intn(8))*Microsecond)
				}
				fmt.Fprintf(&log, "%d c%d %d %v\n", p.Now(), c, v, ok)
				p.Wait(Duration(rng.Intn(3)) * Microsecond)
			}
		})
	}
	for pr := 0; pr < producers; pr++ {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(pr)))
		env.SpawnDaemon(fmt.Sprintf("p%d", pr), func(p *Proc) {
			for i := 0; ; i++ {
				p.Wait(Duration(rng.Intn(6)) * Microsecond)
				// Bursts of up to 40 outgrow the ring several times.
				for n := rng.Intn(40) / (1 + rng.Intn(8)); n >= 0; n-- {
					q.Push(pr*1_000_000 + i*100 + n)
				}
			}
		})
	}
	if err := env.RunUntil(Time(0).Add(5 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "events %d", env.Events())
	return log.String()
}

// TestQueueMatchesSliceQueue: under growth, wrap-around and interleaved
// timeouts the ring-based Queue hands the same values to the same consumers
// at the same instants, in the same number of events, as the slice queue —
// spent waiters are skipped in order.
func TestQueueMatchesSliceQueue(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		got := queueScript(t, seed, func(e *Env) popper { return NewQueue[int](e) })
		want := queueScript(t, seed, func(e *Env) popper { return &sliceQueue[int]{env: e} })
		if got != want {
			t.Fatalf("seed %d: ring queue diverged from the slice queue\n got: %s\nwant: %s",
				seed, firstDiff(got, want), firstDiff(want, got))
		}
		if !strings.Contains(got, "false") || !strings.Contains(got, "true") {
			t.Fatalf("seed %d: script exercised no timeout or no delivery", seed)
		}
	}
}

// firstDiff returns the first line of a that differs from b.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d: %s", i+1, al[i])
		}
	}
	return "(prefix of the other)"
}

// TestWaiterListsAreEmptiedInPlace: once their waiters have been served, the
// rings of all three blocking primitives hold no value or token in a vacated
// slot, and the Queue's recycled waiter nodes neither.
func TestWaiterListsAreEmptiedInPlace(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[*int](env)
	sem := NewSemaphore(env, 1)
	cpu := NewCPU(env, "c", 1, 1.0, 0)
	th := NewThread("w", "work")
	for i := 0; i < 5; i++ {
		env.Spawn("w", func(p *Proc) {
			q.Pop(p)
			sem.Acquire(p, 1)
			p.Wait(Microsecond)
			sem.Release(1)
			cpu.Exec(p, th, 5000) // longer than the semaphore's pace: they queue
		})
	}
	env.Spawn("feeder", func(p *Proc) {
		p.Wait(Microsecond)
		for i := 0; i < 8; i++ {
			q.Push(new(int)) // five go to waiters, three are buffered
		}
		for i := 0; i < 3; i++ {
			q.TryPop()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.head != nil || q.tail != nil {
		t.Errorf("Queue: waiter list not empty (head %v, tail %v)", q.head, q.tail)
	}
	nodes := 0
	for w := q.free; w != nil; w = w.next {
		nodes++
		if w.tok != nil || w.v != nil {
			t.Errorf("Queue: free waiter node still holds token %v, value %v", w.tok, w.v)
		}
	}
	if nodes != 5 {
		t.Errorf("Queue: %d waiter nodes recycled, want 5", nodes)
	}
	for name, ring := range map[string]any{
		"Queue.buf": q.buf.buf, "Semaphore.waiters": sem.waiters.buf, "CPU.waiters": cpu.waiters.buf,
	} {
		v := reflect.ValueOf(ring)
		if v.Len() == 0 {
			t.Errorf("%s: ring was never used", name)
		}
		for i := 0; i < v.Len(); i++ {
			if !v.Index(i).IsZero() {
				t.Errorf("%s: slot %d still holds %v", name, i, v.Index(i))
			}
		}
	}
}
