package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// funcTask adapts a closure for tests; model code implements Task on the
// object it already has.
type funcTask func()

func (f funcTask) Run() { f() }

// namedTask is a task that names itself in deadlock reports.
type namedTask struct {
	name string
	run  func()
}

func (t *namedTask) Run()           { t.run() }
func (t *namedTask) String() string { return t.name }

// A watcher is the unit the property test swaps between its two forms: wait
// for one event (ev >= 0) or one deadline (registration instant + after, which
// may lie in the past), then run a tail that never blocks.
type watcher struct {
	name  string
	ev    int
	after Duration
	ops   []tailOp
}

type tailOp struct {
	kind int // 0 fire evs[arg], 1 release a permit, 2 push arg, 3 register next, 4 spawn a child proc
	arg  int
	next *watcher
}

// step is one action of a program proc.
type step struct {
	kind int // 0 wait d, 1 fire evs[arg], 2 WaitTimeout(evs[arg], d), 3 register w, 4 acquire a permit and register w (which releases it), 5 PopTimeout(d), 6 send arg over a link
	d    Duration
	arg  int
	w    *watcher
}

// taskPart is one partition of a random program.
type taskPart struct {
	env      *Env
	useTasks bool
	evs      []Event
	sem      *Semaphore
	q        *Queue[int]
	out      []*XLink
	log      []string
}

// note logs (t, seq, owner): seq is the kernel's draw counter, so equal logs
// mean every sequence number was drawn at the same point of the program.
func (pt *taskPart) note(who string) {
	pt.log = append(pt.log, fmt.Sprintf("%d/%d/%s", pt.env.now, pt.env.seq, who))
}

func (pt *taskPart) tail(w *watcher) {
	pt.note(w.name)
	for _, op := range w.ops {
		switch op.kind {
		case 0:
			pt.evs[op.arg].Fire()
		case 1:
			pt.sem.Release(1)
		case 2:
			pt.q.Push(op.arg)
		case 3:
			pt.watch(op.next)
		case 4:
			child, d := w.name+"-child", Duration(op.arg)
			pt.env.Spawn(child, func(p *Proc) {
				p.Wait(d)
				pt.note(child)
			})
		}
	}
}

// watch registers w in the form under test.
func (pt *taskPart) watch(w *watcher) {
	run := funcTask(func() { pt.tail(w) })
	switch {
	case w.ev >= 0 && pt.useTasks:
		pt.env.After(&pt.evs[w.ev], run)
	case w.ev >= 0:
		pt.env.Spawn(w.name, func(p *Proc) {
			pt.evs[w.ev].Wait(p)
			pt.tail(w)
		})
	case pt.useTasks:
		pt.env.At(pt.env.now.Add(w.after), run)
	default:
		at := pt.env.now.Add(w.after)
		pt.env.Spawn(w.name, func(p *Proc) {
			p.WaitUntil(at)
			pt.tail(w)
		})
	}
}

func (pt *taskPart) exec(p *Proc, name string, steps []step) {
	for i, s := range steps {
		switch s.kind {
		case 0:
			p.Wait(s.d)
		case 1:
			pt.evs[s.arg].Fire()
		case 2:
			pt.note(fmt.Sprintf("%s:fired=%v", name, pt.evs[s.arg].WaitTimeout(p, s.d)))
		case 3:
			pt.watch(s.w)
		case 4:
			pt.sem.Acquire(p, 1)
			pt.watch(s.w)
		case 5:
			v, ok := pt.q.PopTimeout(p, s.d)
			pt.note(fmt.Sprintf("%s:pop=%d,%v", name, v, ok))
		case 6:
			if len(pt.out) > 0 {
				pt.out[s.arg%len(pt.out)].Send(p, s.arg)
			}
		}
		pt.note(fmt.Sprintf("%s#%d", name, i))
	}
}

// taskProgram builds the seeded random program — 2-4 partitions on a ring,
// each with events, a two-permit semaphore, a queue, procs walking random
// steps and watchers in the chosen form — and runs it to completion, with the
// kernel as shipped or as the classic loop (heapOnly). It returns each
// partition's log and kernel counters.
func taskProgram(t *testing.T, seed int64, useTasks, heapOnly bool, workers int) (logs [][]string, stats []EnvStats) {
	t.Helper()
	const (
		nEvents = 6
		span    = 2 * Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(3)
	g := NewGroup()
	parts := make([]*taskPart, n)
	for i := range parts {
		env := NewEnv(seed + int64(i))
		env.heapOnly = heapOnly
		g.Add(fmt.Sprint("p", i), env)
		parts[i] = &taskPart{env: env, useTasks: useTasks, evs: make([]Event, nEvents),
			sem: NewSemaphore(env, 2), q: NewQueue[int](env)}
	}
	for i, pt := range parts {
		j := (i + 1) % n
		l := g.Connect(fmt.Sprintf("p%d->p%d", i, j), PartitionID(i), PartitionID(j),
			Duration(5+rng.Intn(40))*Microsecond)
		pt.out = append(pt.out, l)
		dst := parts[j]
		dst.env.SpawnDaemon("rx", func(p *Proc) {
			for {
				m := l.Recv(p)
				dst.note("rx")
				dst.evs[m.Payload.(int)%nEvents].Fire()
			}
		})
	}
	watchers := 0
	var newWatcher func(depth int, release bool) *watcher
	newWatcher = func(depth int, release bool) *watcher {
		watchers++
		w := &watcher{name: fmt.Sprint("w", watchers), ev: rng.Intn(nEvents+2) - 2}
		if w.ev < 0 {
			w.ev, w.after = -1, Duration(rng.Intn(60)-10)*Microsecond
		}
		if release {
			w.ops = append(w.ops, tailOp{kind: 1})
		}
		for k := rng.Intn(3); k > 0; k-- {
			op := tailOp{kind: rng.Intn(5), arg: rng.Intn(nEvents)}
			switch {
			case op.kind == 1:
				op.kind = 0 // permits are released only by the watcher that was handed one
			case op.kind == 3 && depth < 3:
				op.next = newWatcher(depth+1, false)
			case op.kind == 3:
				op.kind = 2
			case op.kind == 4:
				op.arg = rng.Intn(20000)
			}
			w.ops = append(w.ops, op)
		}
		return w
	}
	for i, pt := range parts {
		pt := pt
		for k := 0; k < 3; k++ {
			name := fmt.Sprintf("proc%d.%d", i, k)
			steps := make([]step, 12)
			for s := range steps {
				// Durations on a 5us grid: procs keep meeting at the same instant,
				// where only seq orders their timers and the wake-ups they cause.
				st := step{kind: rng.Intn(7), d: Duration(rng.Intn(16)) * 5 * Microsecond, arg: rng.Intn(nEvents)}
				switch st.kind {
				case 1:
					if rng.Intn(2) == 0 {
						st.kind = 0 // fire sparingly, so that watchers do wait
					}
				case 3:
					st.w = newWatcher(0, false)
				case 4:
					st.w = newWatcher(0, true)
				}
				steps[s] = st
			}
			pt.env.Spawn(name, func(p *Proc) { pt.exec(p, name, steps) })
		}
		// Watchers registered before the run starts, and the proc that makes
		// sure every event fires in the end.
		pt.watch(newWatcher(0, false))
		pt.watch(newWatcher(0, false))
		pt.env.Spawn("finisher", func(p *Proc) {
			p.WaitUntil(Time(span))
			for k := range pt.evs {
				pt.evs[k].Fire()
			}
		})
	}
	if err := g.Run(workers, MaxTime); err != nil {
		t.Fatalf("seed=%d tasks=%v workers=%d: %v", seed, useTasks, workers, err)
	}
	for _, pt := range parts {
		logs = append(logs, pt.log)
		st := pt.env.Stats()
		stats = append(stats, st)
		if useTasks == (st.TaskRuns == 0) {
			t.Fatalf("seed=%d tasks=%v: %d task runs", seed, useTasks, st.TaskRuns)
		}
		if heapOnly == (st.NowQueued > 0) {
			t.Fatalf("seed=%d heapOnly=%v: %d events through the now-queue", seed, heapOnly, st.NowQueued)
		}
	}
	g.Shutdown()
	return logs, stats
}

// TestTaskReplacesWatcherProcOneForOne is the equivalence rule as a property:
// over seeded random programs of procs, events, timeouts, semaphores, queues
// and cross-partition messages, turning every "spawn, wait once, run a
// non-blocking tail" proc into a task changes neither the (t, seq, owner) log
// of any partition nor its event count, at any worker count. The logs
// themselves are pinned by their hash: a kernel change that moved both forms
// alike fails there.
func TestTaskReplacesWatcherProcOneForOne(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 16; seed++ {
		wantLogs, want := taskProgram(t, seed, false, false, 1)
		hashLogs(h, wantLogs...)
		wantEvents := eventCounts(want)
		entries := 0
		for _, l := range wantLogs {
			entries += len(l)
		}
		if entries < 100 {
			t.Fatalf("seed=%d: only %d log entries; the program did nothing", seed, entries)
		}
		for _, workers := range []int{1, 2, 4} {
			logs, stats := taskProgram(t, seed, true, false, workers)
			if events := eventCounts(stats); !reflect.DeepEqual(events, wantEvents) {
				t.Fatalf("seed=%d workers=%d: events per partition %v with tasks, %v with procs",
					seed, workers, events, wantEvents)
			}
			for i := range wantLogs {
				if !reflect.DeepEqual(logs[i], wantLogs[i]) {
					t.Fatalf("seed=%d workers=%d partition %d: logs differ:\n got %q\nwant %q",
						seed, workers, i, logs[i], wantLogs[i])
				}
			}
		}
	}
	if got := h.Sum64(); got != watcherLogHash {
		t.Fatalf("the logs hash to %#x, pinned %#x: an event moved", got, watcherLogHash)
	}
}

// watcherLogHash and chainLogHash pin the logs of the two property tests at
// their seeds (hashLogs).
const (
	watcherLogHash uint64 = 0xcdaeac60bab947c3
	chainLogHash   uint64 = 0x304226ad6d858679
)

// hashLogs folds logs, entry by entry, into h.
func hashLogs(h hash.Hash64, logs ...[]string) {
	for _, l := range logs {
		for _, entry := range l {
			h.Write([]byte(entry))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
}

// TestTaskRunsAtRegistrationSlot: a task whose condition already holds — an
// event that has fired, a deadline that has passed — does not run inside
// After/At but in the registration's own slot of the event order, at the
// same instant, after everything scheduled before it: where its proc form
// would have started.
func TestTaskRunsAtRegistrationSlot(t *testing.T) {
	env := NewEnv(1)
	var fired Event
	fired.Fire()
	var order []string
	mark := func(s string) Task {
		return funcTask(func() { order = append(order, fmt.Sprintf("%s@%v", s, env.Now())) })
	}
	env.Spawn("registrar", func(p *Proc) {
		p.Wait(10 * Microsecond)
		env.Spawn("earlier", func(*Proc) { mark("earlier").Run() })
		env.After(&fired, mark("after-fired"))
		env.At(Time(3*Microsecond), mark("at-past"))
		env.At(p.Now(), mark("at-now"))
		env.Spawn("later", func(*Proc) { mark("later").Run() })
		mark("registrar").Run()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "registrar@0.000010s earlier@0.000010s after-fired@0.000010s at-past@0.000010s at-now@0.000010s later@0.000010s"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %s\nwant    %s", got, want)
	}
	if st := env.Stats(); st.TaskRuns != 3 || st.Events != 7 {
		t.Fatalf("stats %+v: want 3 task runs in 7 events (one heap entry per ready task)", st)
	}
}

// TestTaskRegistrationDoesNotAllocate holds After and At to the standard of
// the blocking primitives: nothing per registration once the pools are warm.
func TestTaskRegistrationDoesNotAllocate(t *testing.T) {
	ran := 0
	var count Task = funcTask(func() { ran++ })
	cases := map[string]func(env *Env){
		"After an event that fires later": func(env *Env) {
			var ev Event
			env.SpawnDaemon("firer", func(p *Proc) {
				for {
					env.After(&ev, count)
					env.After(&ev, count)
					p.Wait(Microsecond)
					ev.Fire()
					ev = Event{}
				}
			})
		},
		"After an event that has fired": func(env *Env) {
			var ev Event
			ev.Fire()
			env.SpawnDaemon("registrar", func(p *Proc) {
				for {
					env.After(&ev, count)
					p.Wait(Microsecond)
				}
			})
		},
		"At a future instant": func(env *Env) {
			env.SpawnDaemon("registrar", func(p *Proc) {
				for {
					env.At(p.Now().Add(3*Microsecond), count)
					p.Wait(Microsecond)
				}
			})
		},
		"Delay chain, zero and timed": func(env *Env) {
			env.Delay(0, &delayChain{env: env, ran: &ran})
		},
		"AcquireThen granted": func(env *Env) {
			sem := NewSemaphore(env, 1)
			for i := 0; i < 3; i++ {
				h := &permitHolder{sem: sem, ran: &ran}
				h.Run()
			}
		},
	}
	for name, build := range cases {
		if allocs := steadyAllocs(t, build); allocs != 0 {
			t.Errorf("%s: %.1f allocations per 100 cycles in steady state, want 0", name, allocs)
		}
	}
	if ran == 0 {
		t.Fatal("no task ever ran")
	}
}

// delayChain is a task chain joined by Delay alone, zero and timed by turns.
type delayChain struct {
	env *Env
	ran *int
}

func (c *delayChain) Run() {
	*c.ran++
	c.env.Delay(Duration(*c.ran%2)*Microsecond, c)
}

// permitHolder takes a permit through AcquireThen, holds it a microsecond
// and gives it back, over and over, while others wait in the FIFO.
type permitHolder struct {
	sem *Semaphore
	ran *int
	// phase is 0 before the first acquire, 1 while the acquire waits, 2
	// while the permit is held.
	phase int
}

func (h *permitHolder) Run() {
	switch h.phase {
	case 2:
		h.sem.Release(1)
		fallthrough
	case 0:
		h.phase = 1
		if h.sem.AcquireThen(1, h) {
			return
		}
		fallthrough
	case 1:
		*h.ran++
		h.phase = 2
		h.sem.env.Delay(Microsecond, h)
	}
}

// TestTaskPanicSurfacesFromRun: a panicking task reaches the caller of Run
// with its value, like a panicking proc body — both when the kernel loop ran
// the task and when a parking proc did.
func TestTaskPanicSurfacesFromRun(t *testing.T) {
	type modelBug struct{ code int }
	for name, bystander := range map[string]func(*Proc){
		"kernel loop":  func(p *Proc) {}, // gone by then: runWindow pops the task's entry
		"parking proc": func(p *Proc) { p.Wait(Second) },
	} {
		env := NewEnv(1)
		env.Spawn("bystander", bystander)
		env.At(Time(Millisecond), funcTask(func() { panic(modelBug{7}) }))
		var got any
		func() {
			defer func() { got = recover() }()
			t.Errorf("%s: Run returned %v instead of panicking", name, env.Run())
		}()
		if got != (modelBug{7}) {
			t.Fatalf("%s: recovered %#v, want modelBug{7}", name, got)
		}
		env.Shutdown()
		if env.LiveProcs() != 0 {
			t.Fatalf("%s: live=%d after shutdown", name, env.LiveProcs())
		}
	}
}

// daemonTask is a funcTask that marks itself a daemon's.
type daemonTask func()

func (d daemonTask) Run()  { d() }
func (daemonTask) Daemon() {}

// TestTaskStuckIsReportedAndShutdownDropsIt: a task whose event never fires
// counts as live, is named in the deadlock report (by its String method, or
// by its type) unless it is a Daemon's, which is only counted, and Shutdown
// drops it — in whichever of its three states it is — returning every token
// the tasks held to the pool.
func TestTaskStuckIsReportedAndShutdownDropsIt(t *testing.T) {
	env := NewEnv(1)
	var never Event
	ran := 0
	env.After(&never, &namedTask{"commit:7", func() { ran++ }})
	env.After(&never, funcTask(func() { ran++ }))
	env.After(&never, funcTask(func() { ran++ })) // third waiter: past the inline slots
	env.At(Time(Microsecond), funcTask(func() { ran++ }))
	env.After(&never, daemonTask(func() { ran++ }))
	if env.LiveProcs() != 5 {
		t.Fatalf("live=%d with five tasks registered", env.LiveProcs())
	}
	de, ok := env.Run().(DeadlockError)
	if !ok {
		t.Fatal("want DeadlockError")
	}
	if got, want := strings.Join(de.Blocked, " "), "commit:7 sim.funcTask sim.funcTask"; got != want {
		t.Fatalf("blocked = %q, want %q", got, want)
	}
	if got := de.Partitions[0].Parked; !reflect.DeepEqual(got, de.Blocked) || de.Partitions[0].Daemons != 1 {
		t.Fatalf("parked = %q, blocked = %q, %d daemons", got, de.Blocked, de.Partitions[0].Daemons)
	}
	if ran != 1 || env.LiveProcs() != 4 {
		t.Fatalf("ran=%d live=%d after the run; the deadline task alone should have run", ran, env.LiveProcs())
	}
	// One more in each state a pending task can be in: registration entry
	// still queued, and waiting for a deadline.
	env.After(&never, funcTask(func() { ran++ }))
	env.At(Time(Second), funcTask(func() { ran++ }))
	if err := env.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	env.After(&never, funcTask(func() { ran++ }))
	tokens := len(env.tokFree)
	for _, pt := range env.tasks {
		if pt.tok.spent {
			t.Fatal("a pending task holds a spent token")
		}
		tokens++
	}
	env.Shutdown()
	if env.LiveProcs() != 0 || len(env.tasks) != 0 || env.pending() != 0 {
		t.Fatalf("after shutdown: live=%d tasks=%d queued=%d",
			env.LiveProcs(), len(env.tasks), env.pending())
	}
	if len(env.tokFree) != tokens {
		t.Fatalf("%d tokens in the pool after shutdown, want %d", len(env.tokFree), tokens)
	}
	for _, tok := range env.tokFree {
		if tok.refs != 0 || tok.dl != 0 || tok.task != nil {
			t.Fatalf("pooled token %+v", *tok)
		}
	}
	never.Fire() // nobody left to wake
	if ran != 1 || env.pending() != 0 {
		t.Fatalf("a dropped task ran or was rescheduled: ran=%d queued=%d", ran, env.pending())
	}
}

// TestTaskStatsAccountForEveryEvent: each fired event was consumed by a
// resume from the scheduler (two switches), by the waiting proc itself, by a
// finishing body that handed its coroutine on, or by a task, and had waited
// in the now-queue, in the heap or in neither (a wait fired in place); the
// tokens and records taken are exactly the registrations that can race; a
// group adds its partitions up at any worker count.
func TestTaskStatsAccountForEveryEvent(t *testing.T) {
	build := func(seed int64) *Env {
		env := NewEnv(seed)
		var ev Event
		q := NewQueue[int](env)
		env.Spawn("solo", func(p *Proc) { // its own wake-up is mostly next: fast path
			for i := 0; i < 50; i++ {
				p.Wait(Nanosecond)
			}
		})
		env.Spawn("producer", func(p *Proc) {
			p.Wait(Millisecond)
			for i := 0; i < 50; i++ {
				p.Wait(Microsecond)
				q.Push(i)
				env.At(p.Now(), funcTask(func() {})) // ready: one event
				// relay ends into leaf's start: a hand-off.
				env.Spawn("relay", func(*Proc) {
					env.Spawn("leaf", func(*Proc) {})
				})
			}
			env.After(&ev, funcTask(func() {})) // waits: two events
			p.Wait(Microsecond)
			ev.Fire()
		})
		env.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				q.PopTimeout(p, Second) // the push beats every timeout: cancelled
			}
		})
		return env
	}
	check := func(st EnvStats, envs uint64) {
		t.Helper()
		if st.TaskRuns != 51*envs || st.Events != st.Switches/2+st.FastPath+st.Handoffs+52*envs {
			t.Fatalf("%+v: events != switches/2 + fast path + hand-offs + %d task events", st, 52*envs)
		}
		if st.Handoffs != 51*envs {
			t.Fatalf("%+v: want a hand-off from every relay to its leaf, and from the consumer to the last relay", st)
		}
		// Scheduled for the instant of the call: three spawns, fifty pushes to
		// the parked consumer, fifty-one task registrations, a hundred relay
		// and leaf spawns, one fire. Popped from the heap or fired in place:
		// the fifty timers of solo and the fifty-two of the producer; the
		// consumer's fifty timeouts leave the deadline heap at their pushes.
		if st.NowQueued != 205*envs || st.Events != st.NowQueued+102*envs {
			t.Fatalf("%+v: events != now-queued + %d timers", st, 102*envs)
		}
		if st.FastPath < 50 || st.Switches == 0 || st.HeapPeak < 2 || st.DeadlinePeak != 1 {
			t.Fatalf("%+v: a counter that should have moved did not", st)
		}
		if st.Deadlines != 50*envs || st.Cancelled != 50*envs {
			t.Fatalf("%+v: want %d deadlines registered, all cancelled", st, 50*envs)
		}
		// Tokens: the fifty PopTimeouts' continuations, the fifty-one
		// registrations and the After task's waiter-list entry. Records: one
		// per registration and per PopTimeout. A proc's start and a parked
		// Wait are queued as the proc itself, and the After task's wake-up,
		// granted by Fire, and the consumer's, by a push, as themselves: none
		// takes either.
		if st.Tokens != 102*envs || st.Records != 101*envs {
			t.Fatalf("%+v: want %d tokens and %d records", st, 102*envs, 101*envs)
		}
	}
	env := build(1)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	one := env.Stats()
	check(one, 1)

	for _, workers := range []int{1, 2, 4} {
		g := NewGroup()
		ids := make([]PartitionID, 4)
		for i := range ids {
			ids[i] = g.Add(fmt.Sprint("p", i), build(int64(i+1)))
		}
		for i := range ids {
			g.Connect(fmt.Sprintf("p%d->p%d", i, (i+1)%4), ids[i], ids[(i+1)%4], 10*Microsecond)
		}
		if err := g.Run(workers, MaxTime); err != nil {
			t.Fatal(err)
		}
		// Window limits turn some fast-path wakes into resumes, so only the
		// totals and the peaks (a maximum, not a sum) carry over.
		sum := g.Stats().Kernel
		check(sum, 4)
		if sum.Events != 4*one.Events || sum.Events != g.Events() || sum.HeapPeak != one.HeapPeak {
			t.Fatalf("workers=%d: group %+v is not four of %+v", workers, sum, one)
		}
		g.Shutdown()
	}
}
