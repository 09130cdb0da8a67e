package sim

import "testing"

// BenchmarkCrossProcSwitch measures the cost of an event whose owner is not
// the proc that was running: two processes ping-ponging through a pair of
// queues, so every one of the two events per iteration switches coroutines
// (proc -> kernel -> proc). The same-proc fast path (BenchmarkCPUExec, the
// benchmark ledger's sim.event_ns) never switches and cannot see this cost.
func BenchmarkCrossProcSwitch(b *testing.B) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	r := NewQueue[int](env)
	env.SpawnDaemon("echo", func(p *Proc) {
		for {
			r.Push(q.Pop(p))
		}
	})
	done := false
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			_ = r.Pop(p)
		}
		done = true
	})
	b.ResetTimer()
	if err := env.RunUntil(MaxTime); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if !done {
		b.Fatal("driver did not finish")
	}
	env.Shutdown()
}

// BenchmarkWakeNow measures the wake-up at the current instant — a queue push
// to a parked proc, the shape of 43-50 % of a cluster run's events — with
// forty timers parked in the heap, its standing population in a cluster run:
// two events per iteration, both through the now-queue.
func BenchmarkWakeNow(b *testing.B) {
	env := NewEnv(1)
	for i := 0; i < 40; i++ {
		d := 3600*Second + Duration(i)*Millisecond
		env.SpawnDaemon("parked", func(p *Proc) { p.Wait(d) })
	}
	q := NewQueue[int](env)
	r := NewQueue[int](env)
	env.SpawnDaemon("echo", func(p *Proc) {
		for {
			r.Push(q.Pop(p))
		}
	})
	env.Spawn("driver", func(p *Proc) {
		p.Wait(Microsecond) // the parked procs reach their waits first
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Push(i)
			_ = r.Pop(p)
		}
		b.StopTimer()
	})
	if err := env.RunUntil(Time(Second)); err != nil {
		b.Fatal(err)
	}
	if st := env.Stats(); st.NowQueued < 2*uint64(b.N) || st.HeapPeak > 42 {
		b.Fatalf("%+v: the wake-ups went through the heap", st)
	}
	env.Shutdown()
}

// BenchmarkTimerHeap measures the other side of the split: forty procs in
// staggered timed waits, one event per iteration, every one through the heap.
func BenchmarkTimerHeap(b *testing.B) {
	env := NewEnv(1)
	const procs = 40
	for i := 0; i < procs; i++ {
		d := Duration(100+i) * Nanosecond
		n := (b.N + i) / procs
		env.Spawn("timer", func(p *Proc) {
			for k := 0; k < n; k++ {
				p.Wait(d)
			}
		})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := env.Stats(); st.NowQueued != procs || st.Events != uint64(b.N)+procs {
		b.Fatalf("%+v: want %d timers through the heap", st, b.N)
	}
	env.Shutdown()
}

// BenchmarkCPUExec measures the contended-CPU fast path.
func BenchmarkCPUExec(b *testing.B) {
	env := NewEnv(1)
	cpu := NewCPU(env, "c", 4, 3.0, 2000)
	th := NewThread("w", "work")
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cpu.Exec(p, th, 1000)
		}
	})
	b.ResetTimer()
	if err := env.RunUntil(MaxTime); err != nil {
		b.Fatal(err)
	}
	env.Shutdown()
}
