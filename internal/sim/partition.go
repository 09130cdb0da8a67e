package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file implements the conservative parallel event kernel: a Group of
// independent Env partitions, each with its own event heap, clock, random
// stream and proc pools, synchronized by lookahead-bounded safe windows.
//
// The synchronization protocol is a barrier-stepped variant of the classic
// Chandy-Misra-Bryant conservative algorithm (null messages replaced by a
// horizon computation at each barrier):
//
//  1. At a barrier, read every partition's next local event time E_i.
//  2. Relax over the declared XLinks: act[i], the earliest instant anything
//     can happen in partition i, starts at E_i and is lowered to
//     max(act[src], quiet_l) + lat_l over every incoming link l until
//     stable, where quiet_l is the instant the link's source promised to
//     stay silent until (XLink.Hold; zero when it never did). The safe
//     horizon H_i is the minimum of that bound over i's incoming links —
//     including paths that start at i itself, so a partition never outruns
//     the echo of its own send. No event another partition will ever
//     execute can influence partition i before H_i, because influence only
//     travels over links and every link has strictly positive latency (its
//     lookahead). With no promises this is the shortest-path bound
//     min_j (E_j + dist(j, i)).
//  3. Run, in parallel on worker goroutines, every partition whose next
//     event lies before min(H_i, limit+1). Each partition executes its
//     window serially with the unchanged serial kernel, so all existing
//     model code runs unmodified and data-race-free.
//  4. At the next barrier, deliver the cross-partition messages staged by
//     Send during the window. Lookahead guarantees every arrival timestamp
//     is still in each receiver's future; deliver panics if one is not.
//
// Determinism: a partition's execution depends only on its own event
// sequence and the messages injected at barriers. Horizons are pure
// functions of partition state read at barriers, and injected batches are
// sorted by the total order (arrival time, link id, per-link sequence) —
// none of it depends on how many workers run the windows or how the Go
// scheduler interleaves them. Results are therefore bit-identical for any
// worker count and any GOMAXPROCS, and with one partition and no links the
// group degenerates to the serial kernel exactly.
type Group struct {
	names []string
	envs  []*Env
	// windows counts each partition's windows.
	windows []uint64
	links   []*XLink
	stats   GroupStats
	started bool
}

// GroupStats counts the synchronization work a Run performed.
type GroupStats struct {
	// Rounds is the number of barrier rounds executed.
	Rounds uint64
	// Windows is the number of partition windows dispatched (at most
	// Rounds x partitions; fewer when partitions sit idle).
	Windows uint64
	// Delivered is the number of cross-partition messages delivered.
	Delivered uint64
	// Wall is the host time spent in Run; Busy[w] is the share of it worker
	// w spent executing partition windows (the rest is barrier work and
	// waiting for the round's slowest window).
	Wall time.Duration
	Busy []time.Duration
	// BarrierWait[w] is the host time worker w spent waiting for the round's
	// slowest window: the rounds' window phases, less its Busy.
	BarrierWait []time.Duration
	// PartWindows[i] and PartEvents[i] are partition i's windows and the
	// events it fired; they add up to Windows and Kernel.Events.
	PartWindows []uint64
	PartEvents  []uint64
	// Held[l] counts the rounds in which link l's Hold promise set its
	// destination's horizon (links in Connect order): the rounds the promise
	// bought.
	Held []uint64
	// Kernel is the partitions' own accounts added up (see EnvStats).
	Kernel EnvStats
}

// Efficiency is the fraction of the workers' wall time spent inside
// partition windows: sum(Busy) / (workers x Wall), 1 for a perfectly
// balanced run with free barriers.
func (s GroupStats) Efficiency() float64 {
	if s.Wall <= 0 || len(s.Busy) == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range s.Busy {
		busy += b
	}
	return busy.Seconds() / (float64(len(s.Busy)) * s.Wall.Seconds())
}

// PartitionID names one member environment of a Group.
type PartitionID int

// NewGroup returns an empty partition group.
func NewGroup() *Group { return &Group{} }

// Add registers env as a partition and returns its id. All partitions must
// be added (and their links connected) before Run.
func (g *Group) Add(name string, env *Env) PartitionID {
	for _, e := range g.envs {
		if e == env {
			panic(fmt.Sprintf("sim: partition %q: env already added to this group", name))
		}
	}
	g.envs = append(g.envs, env)
	g.names = append(g.names, name)
	g.windows = append(g.windows, 0)
	return PartitionID(len(g.envs) - 1)
}

// Partitions returns the number of member environments.
func (g *Group) Partitions() int { return len(g.envs) }

// Env returns the member environment with the given id.
func (g *Group) Env(id PartitionID) *Env { return g.envs[id] }

// Name returns the name the partition was added with.
func (g *Group) Name(id PartitionID) string { return g.names[id] }

// Events returns the total events fired across all partitions.
func (g *Group) Events() uint64 {
	var n uint64
	for _, e := range g.envs {
		n += e.Events()
	}
	return n
}

// Stats returns the synchronization counters of the last Run and the
// partitions' kernel counters; it must not be called while Run is running.
func (g *Group) Stats() GroupStats {
	s := g.stats
	s.PartWindows = slices.Clone(g.windows)
	s.PartEvents = make([]uint64, len(g.envs))
	for i, e := range g.envs {
		s.Kernel.add(e.stats)
		s.PartEvents[i] = e.stats.Events
	}
	s.Held = make([]uint64, len(g.links))
	for i, l := range g.links {
		s.Held[i] = l.held
	}
	return s
}

// XMsg is one cross-partition message: a payload stamped with its arrival
// instant at the destination partition plus the (link, sequence) pair that
// breaks ties deterministically when two messages arrive at the same
// instant.
type XMsg struct {
	// At is the arrival instant at the destination partition.
	At Time
	// Link is the carrying link's index within its group.
	Link int
	// Seq is the per-link send sequence number (starts at 1).
	Seq uint64
	// Payload is the message body.
	Payload any
}

// XLink is a unidirectional, latency-ful channel between two partitions —
// the only way state may cross a partition boundary. Its latency is the
// link's lookahead: the kernel relies on no send becoming visible at the
// destination sooner than latency after it was issued, which is what lets
// partitions run ahead of each other inside that bound.
type XLink struct {
	g        *Group
	id       int
	name     string
	src, dst PartitionID
	latency  Duration
	seq      uint64
	sent     uint64
	// quiet is the source's promise: no Send on this link before it. Written
	// by the source partition's procs (Hold), read only at barriers.
	quiet Time
	// held counts the rounds in which quiet set the destination's horizon.
	held uint64
	// staged holds the current window's sends; only the source partition's
	// (single-threaded) execution appends, and only the barrier drains.
	staged []XMsg
	// Inbox is the destination-side queue messages are delivered into at
	// their arrival instants. Receivers Pop it (or use Recv).
	Inbox *Queue[XMsg]
}

// Connect declares a link from src to dst with the given latency (the
// link's lookahead bound). Latency must be strictly positive — a
// zero-lookahead link would force the partitions into lockstep and the
// conservative kernel refuses to model it.
func (g *Group) Connect(name string, src, dst PartitionID, latency Duration) *XLink {
	if latency <= 0 {
		panic(fmt.Sprintf("sim: link %q: lookahead must be positive, got %v", name, latency))
	}
	if src == dst {
		panic(fmt.Sprintf("sim: link %q: src and dst are the same partition", name))
	}
	if int(src) < 0 || int(src) >= len(g.envs) || int(dst) < 0 || int(dst) >= len(g.envs) {
		panic(fmt.Sprintf("sim: link %q: unknown partition id", name))
	}
	l := &XLink{
		g: g, id: len(g.links), name: name,
		src: src, dst: dst, latency: latency,
		Inbox: NewQueue[XMsg](g.envs[dst]),
	}
	g.links = append(g.links, l)
	return l
}

// Latency returns the link's lookahead bound.
func (l *XLink) Latency() Duration { return l.latency }

// Sent returns how many messages have been sent on the link.
func (l *XLink) Sent() uint64 { return l.sent }

// Send stages payload for delivery to the destination partition at
// p.Now()+latency and returns that arrival instant. It must be called from
// a proc of the source partition.
func (l *XLink) Send(p *Proc, payload any) Time {
	if p.env != l.g.envs[l.src] {
		panic(fmt.Sprintf("sim: link %q: Send from a proc outside the source partition", l.name))
	}
	if p.Now() < l.quiet {
		panic(fmt.Sprintf("sim: link %q: Send at %v breaks its Hold until %v", l.name, p.Now(), l.quiet))
	}
	l.seq++
	l.sent++
	at := p.Now().Add(l.latency)
	l.staged = append(l.staged, XMsg{At: at, Link: l.id, Seq: l.seq, Payload: payload})
	return at
}

// Hold promises that the source partition will not Send on the link before
// until, letting every partition downstream run ahead to until+latency
// instead of assuming the source may speak at its very next event. Only a
// sender that knows its own schedule (a periodic reporter holding until its
// next tick) can promise; reactive senders never call it and stay bounded
// by their next event. An unexpired promise may be extended but not shrunk:
// other partitions have already been scheduled against it.
func (l *XLink) Hold(until Time) {
	if now := l.g.envs[l.src].now; until < l.quiet && now < l.quiet {
		panic(fmt.Sprintf("sim: link %q: Hold until %v shrinks the unexpired promise %v (now %v)",
			l.name, until, l.quiet, now))
	}
	l.quiet = until
}

// earliest returns the soonest instant a message sent on the link can
// arrive, given act[src], the earliest instant anything can happen in its
// source partition; MaxTime when the source can never act.
func (l *XLink) earliest(act []Time) Time {
	t := maxTime(act[l.src], l.quiet)
	if t > MaxTime-Time(l.latency) {
		return MaxTime
	}
	return t.Add(l.latency)
}

// Recv blocks p until a message is delivered on the link and returns it.
// It must be called from a proc of the destination partition.
func (l *XLink) Recv(p *Proc) XMsg { return l.Inbox.Pop(p) }

// horizons fills hor[i] with the earliest instant a message could arrive
// in partition i, or MaxTime when none ever can. act is scratch: the
// earliest instant anything can happen in each partition, seeded with its
// next local event and relaxed over the links until stable (latencies are
// positive, so at most one pass per partition).
func (g *Group) horizons(next []Time, has []bool, act, hor []Time) {
	for i := range act {
		act[i], hor[i] = MaxTime, MaxTime
		if has[i] {
			act[i] = next[i]
		}
	}
	for changed := true; changed; {
		changed = false
		for _, l := range g.links {
			if b := l.earliest(act); b < act[l.dst] {
				act[l.dst], changed = b, true
			}
		}
	}
	for _, l := range g.links {
		if b := l.earliest(act); b < hor[l.dst] {
			hor[l.dst] = b
		}
	}
	// A promise set a horizon when it, not its source's next event, bounds the
	// link that bounds the destination.
	for _, l := range g.links {
		if l.quiet > act[l.src] && hor[l.dst] != MaxTime && l.earliest(act) == hor[l.dst] {
			l.held++
		}
	}
}

// deliver drains every link's staged sends and injects them into the
// destination partitions: per destination, the batch is sorted by
// (arrival, link id, sequence) and a delivery proc walks it, waiting until
// each arrival instant before pushing into the link's inbox. An arrival
// behind its destination's clock means a horizon was wrong; that panics
// rather than deliver at the wrong instant. Called only at barriers, with
// no partition running.
func (g *Group) deliver() {
	n := len(g.envs)
	batches := make([][]XMsg, n)
	for _, l := range g.links {
		if len(l.staged) == 0 {
			continue
		}
		batches[l.dst] = append(batches[l.dst], l.staged...)
		l.staged = l.staged[:0]
	}
	for dst, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		g.stats.Delivered += uint64(len(batch))
		sort.Slice(batch, func(i, j int) bool {
			a, b := batch[i], batch[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Link != b.Link {
				return a.Link < b.Link
			}
			return a.Seq < b.Seq
		})
		if m, now := batch[0], g.envs[dst].now; m.At < now {
			panic(fmt.Sprintf("sim: link %q: message arrives at %v, behind partition %q's clock %v",
				g.links[m.Link].name, m.At, g.names[dst], now))
		}
		batch := batch
		g.envs[dst].Spawn("xpart-deliver", func(p *Proc) {
			for _, m := range batch {
				p.WaitUntil(m.At)
				g.links[m.Link].Inbox.Push(m)
			}
		})
	}
}

// Run executes the group until every partition's heap is empty or every
// remaining event lies beyond limit, using up to workers goroutines to run
// partition windows concurrently (workers <= 0 means one per partition).
// On a clean end with events left beyond the limit, every partition clock
// is advanced to limit, mirroring the serial RunUntil contract. A
// DeadlockError carrying per-partition state is returned when, before the
// limit, live non-daemon procs remain with no event or message that could
// ever wake them.
func (g *Group) Run(workers int, limit Time) error {
	if g.started {
		panic("sim: Group.Run called twice")
	}
	g.started = true
	n := len(g.envs)
	if n == 0 {
		return nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	start := time.Now()
	// One cache line per worker: the slots are written once per window.
	busy := make([]struct {
		d time.Duration
		_ [7]uint64
	}, workers)
	// phases is the host time of the rounds' window phases, from the first
	// window handed out to the last one finished: a worker not busy in it was
	// waiting at the barrier.
	var phases time.Duration
	defer func() {
		g.stats.Wall += time.Since(start)
		for len(g.stats.Busy) < workers {
			g.stats.Busy = append(g.stats.Busy, 0)
			g.stats.BarrierWait = append(g.stats.BarrierWait, 0)
		}
		for w := range busy {
			g.stats.Busy[w] += busy[w].d
			g.stats.BarrierWait[w] += phases - busy[w].d
		}
	}()

	type job struct {
		env    *Env
		target Time
	}
	// window runs one partition window on worker w and times it, as two
	// offsets from start: Since reads only the monotonic clock, half the
	// cost of a Now.
	window := func(w int, j job) {
		t0 := time.Since(start)
		j.env.runWindow(j.target)
		busy[w].d += time.Since(start) - t0
	}
	var wg sync.WaitGroup
	var jobs chan job
	if workers > 1 {
		jobs = make(chan job)
		defer close(jobs)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for j := range jobs {
					window(w, j)
					wg.Done()
				}
			}(w)
		}
	}

	next := make([]Time, n)
	has := make([]bool, n)
	act := make([]Time, n)
	hor := make([]Time, n)
	for {
		idle := true
		for i, e := range g.envs {
			next[i], has[i] = e.NextEventTime()
			if has[i] && next[i] <= limit {
				idle = false
			}
		}
		if idle {
			break
		}
		g.stats.Rounds++
		g.horizons(next, has, act, hor)
		ran := 0
		p0 := time.Since(start)
		for i, e := range g.envs {
			if !has[i] {
				continue
			}
			target := limit
			if hor[i] != MaxTime && hor[i]-1 < target {
				target = hor[i] - 1
			}
			if next[i] > target {
				continue
			}
			g.stats.Windows++
			g.windows[i]++
			ran++
			if workers > 1 {
				wg.Add(1)
				jobs <- job{e, target}
			} else {
				window(0, job{e, target})
			}
		}
		if workers > 1 {
			wg.Wait()
		}
		phases += time.Since(start) - p0
		if ran == 0 {
			// Unreachable: the partition holding the globally earliest
			// event always has a horizon strictly beyond it (links have
			// positive latency). Kept as a livelock guard.
			break
		}
		g.deliver()
	}

	remaining := false
	for _, e := range g.envs {
		if _, ok := e.NextEventTime(); ok {
			remaining = true
			break
		}
	}
	if remaining {
		// Every pending event lies beyond the limit: align the clocks and
		// leave the events queued, exactly like the serial RunUntil.
		for _, e := range g.envs {
			e.advanceTo(limit)
		}
		g.started = false
		return nil
	}
	g.started = false
	return g.deadlock()
}

// deadlock builds the per-partition diagnostic error, or returns nil when
// no non-daemon proc is stuck.
func (g *Group) deadlock() error {
	n := len(g.envs)
	pending := make([]int, n)
	for _, l := range g.links {
		pending[l.dst] += l.Inbox.Len()
	}
	var (
		states []PartitionState
		all    []string
		at     Time
	)
	for i, e := range g.envs {
		ps := e.blockedState(g.names[i])
		ps.Pending = pending[i]
		if e.now > at {
			at = e.now
		}
		states = append(states, ps)
		for _, name := range ps.Parked {
			all = append(all, g.names[i]+"/"+name)
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.Strings(all)
	return DeadlockError{Time: at, Blocked: all, Partitions: states}
}

// Shutdown force-terminates every partition's remaining procs, releasing
// their goroutines. The group must not be used afterwards.
func (g *Group) Shutdown() {
	for _, e := range g.envs {
		e.Shutdown()
	}
}
