package sim

import (
	"fmt"
	"testing"
)

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

// echoChain is BenchmarkTaskChainServer's echo side: a task-form identity
// whose body is a CPU burst followed by the echo.
type echoChain struct {
	cpu  *CPU
	th   *Thread
	r    *Queue[int]
	done Task
	v    int
}

func (c *echoChain) serve(v int) {
	c.v = v
	if !c.cpu.ExecThen(c.th, 1, nil, c) {
		c.Run()
	}
}

func (c *echoChain) Run() {
	c.r.Push(c.v)
	c.done.Run()
}

// BenchmarkTaskChainServer is BenchmarkCrossProcSwitch with the echo side as
// a task chain: a ServeTask identity whose body is a one-cycle CPU burst
// (ExecThen) before the echo. Of the three events per iteration the echo's
// start runs as a task, the burst's end — the next event, as the driver waits
// with no timer — fires in place, and the driver's wake is popped by the
// driver itself as it parks: no coroutine is resumed. The difference to
// BenchmarkCrossProcSwitch is what the task forms save per event they take
// off a coroutine.
func BenchmarkTaskChainServer(b *testing.B) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	echo := &echoChain{cpu: NewCPU(env, "c", 1, 1.0, 0), th: NewThread("echo", "t"), r: NewQueue[int](env)}
	echo.done = q.ServeTask("echo", echo.serve)
	done := false
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			if v := echo.r.Pop(p); v != i {
				b.Errorf("echoed %d, want %d", v, i)
				return
			}
		}
		done = true
	})
	b.ResetTimer()
	if err := env.RunUntil(MaxTime); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := env.Stats(); !done || st.TaskRuns != uint64(b.N) || st.FastPath != 2*uint64(b.N) || st.Switches > 2 {
		b.Fatalf("done=%v, %+v: want one task run, two fast-path wakes and no resume per iteration", done, st)
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
// staggered timed waits, one event per iteration, through the heap. The
// stagger keeps the waking proc's next deadline behind another proc's almost
// every time (35 of 200,000 waits fire in place), so each event also pays a
// resume from the scheduler.
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
	if st := env.Stats(); st.NowQueued != procs || st.Events != uint64(b.N)+procs || st.FastPath > uint64(b.N)/1000+1 {
		b.Fatalf("%+v: want %d timers through the heap", st, b.N)
	}
	env.Shutdown()
}

// BenchmarkCPUExec measures a CPU burst of a proc alone on an uncontended
// CPU: its Wait is always the earliest event, so it fires in place — no
// token, no heap entry, no park — and what is left is the CPU model's own
// accounting and a clock move (the benchmark ledger's sim.cpu_exec_ns).
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

// BenchmarkServeChain measures a pipeline of identities: three served
// queues, each turn ending with a push to the next stage's idle identity. One
// iteration is four events — the feeder's timer and three identity starts —
// of which only the feeder's pays a resume from the scheduler.
func BenchmarkServeChain(b *testing.B) {
	env := NewEnv(1)
	var stages [3]Queue[int]
	var done [3]Task
	through := 0
	for i := range stages {
		stages[i].Init(env)
		next := i + 1
		done[i] = stages[i].ServeTask(fmt.Sprint("stage", i), func(v int) {
			if next < len(stages) {
				stages[next].Push(v)
			} else {
				through++
			}
			done[next-1].Run()
		})
	}
	env.Spawn("feeder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			stages[0].Push(i)
			p.Wait(Microsecond)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := env.Stats(); through != b.N || st.TaskRuns != 3*uint64(b.N) || st.Switches > 2*uint64(b.N)+2 {
		b.Fatalf("%d values through, %+v: want three turns and one resume per value", through, st)
	}
	env.Shutdown()
}

// BenchmarkDelayChains is BenchmarkTimerHeap with the forty timers as task
// chains joined by Delay: one event per iteration through the heap, each run
// inline, queued as itself — no token, no record, no resume.
func BenchmarkDelayChains(b *testing.B) {
	env := NewEnv(1)
	const chains = 40
	for i := 0; i < chains; i++ {
		env.Delay(0, &timerChain{env: env, d: Duration(100+i) * Nanosecond, n: (b.N + i) / chains})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := env.Stats(); st.Events != uint64(b.N)+chains || st.Tokens != 0 || st.Records != 0 || st.Switches != 0 {
		b.Fatalf("%+v: want %d task events and no token, record or resume", st, b.N)
	}
	env.Shutdown()
}

// timerChain delays itself n times by d.
type timerChain struct {
	env *Env
	d   Duration
	n   int
}

func (c *timerChain) Run() {
	if c.n > 0 {
		c.n--
		c.env.Delay(c.d, c)
	}
}
