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
