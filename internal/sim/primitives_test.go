package sim

import "testing"

func TestQueuePushPop(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var got []int
	env.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(Millisecond)
			q.Push(i)
		}
	})
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got=%v", got)
		}
	}
}

func TestQueueBufferedBeforePop(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env)
	q.Push("a")
	q.Push("b")
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
	var got []string
	env.Spawn("c", func(p *Proc) {
		got = append(got, q.Pop(p), q.Pop(p))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got=%v", got)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		env.Spawn("w", func(p *Proc) {
			p.Wait(Duration(id) * Microsecond) // deterministic arrival order
			v := q.Pop(p)
			order = append(order, id*100+v)
		})
	}
	env.Spawn("pusher", func(p *Proc) {
		p.Wait(Millisecond)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 102, 203} // waiter 0 gets value 1, etc.
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want=%v", order, want)
		}
	}
}

func TestQueuePopTimeout(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var firstOK, secondOK bool
	var second int
	env.Spawn("c", func(p *Proc) {
		_, firstOK = q.PopTimeout(p, Millisecond)
		second, secondOK = q.PopTimeout(p, 10*Millisecond)
	})
	env.Spawn("late", func(p *Proc) {
		p.Wait(5 * Millisecond)
		q.Push(99)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if firstOK {
		t.Fatal("first pop should have timed out")
	}
	if !secondOK || second != 99 {
		t.Fatalf("second=%d ok=%v", second, secondOK)
	}
}

func TestQueueTimedOutWaiterSkipped(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	got := -1
	env.Spawn("timeouter", func(p *Proc) {
		if _, ok := q.PopTimeout(p, Millisecond); ok {
			t.Error("should time out")
		}
	})
	env.Spawn("real", func(p *Proc) {
		p.Wait(2 * Millisecond)
		got = q.Pop(p)
	})
	env.Spawn("pusher", func(p *Proc) {
		p.Wait(3 * Millisecond)
		q.Push(7) // must skip the spent timeout waiter
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got=%d", got)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		env.Spawn("w", func(p *Proc) {
			sem.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Wait(Millisecond)
			inside--
			sem.Release(1)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("maxInside=%d want 2", maxInside)
	}
	if env.Now() != Time(3*Millisecond) {
		t.Fatalf("now=%v want 3ms", env.Now())
	}
}

func TestSemaphoreFIFONoBarging(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 0)
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		env.Spawn("w", func(p *Proc) {
			p.Wait(Duration(id) * Microsecond)
			sem.Acquire(p, 1)
			order = append(order, id)
		})
	}
	env.Spawn("rel", func(p *Proc) {
		p.Wait(Millisecond)
		sem.Release(3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order=%v", order)
		}
	}
}

func TestSemaphoreMultiPermit(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 3)
	var acquired bool
	env.Spawn("big", func(p *Proc) {
		sem.Acquire(p, 3)
		acquired = true
		sem.Release(3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !acquired || sem.Available() != 3 {
		t.Fatalf("acquired=%v avail=%d", acquired, sem.Available())
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 1)
	if !sem.TryAcquire(1) {
		t.Fatal("first TryAcquire should succeed")
	}
	if sem.TryAcquire(1) {
		t.Fatal("second TryAcquire should fail")
	}
	sem.Release(1)
	if !sem.TryAcquire(1) {
		t.Fatal("TryAcquire after release should succeed")
	}
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent()
	woken := 0
	for i := 0; i < 4; i++ {
		env.Spawn("w", func(p *Proc) {
			ev.Wait(p)
			woken++
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Wait(Millisecond)
		ev.Fire()
		ev.Fire() // double-fire is a no-op
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken=%d", woken)
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent()
	ev.Fire()
	var at Time
	env.Spawn("w", func(p *Proc) {
		p.Wait(Millisecond)
		ev.Wait(p)
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(Millisecond) {
		t.Fatalf("at=%v", at)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent()
	var timedOut, fired bool
	env.Spawn("w", func(p *Proc) {
		timedOut = !ev.WaitTimeout(p, Millisecond)
		fired = ev.WaitTimeout(p, 10*Millisecond)
	})
	env.Spawn("f", func(p *Proc) {
		p.Wait(5 * Millisecond)
		ev.Fire()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !fired {
		t.Fatalf("timedOut=%v fired=%v", timedOut, fired)
	}
}

func TestCondBroadcastRecheckLoop(t *testing.T) {
	env := NewEnv(1)
	cond := NewCond()
	value := 0
	var observed int
	env.Spawn("waiter", func(p *Proc) {
		for value < 3 {
			cond.Wait(p)
		}
		observed = value
	})
	env.Spawn("incr", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(Millisecond)
			value++
			cond.Broadcast()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 3 {
		t.Fatalf("observed=%d", observed)
	}
}
