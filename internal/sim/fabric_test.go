package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// transfer sends a frame by awaiting Link.TransferFrameThen.
func transfer(p *Proc, f *Fabric, src, dst string, bytes int64) {
	if _, _, registered := f.Link(src, dst).TransferFrameThen(bytes, p); registered {
		p.Suspend()
	}
}

func TestFabricBasicTransfer(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", Microsecond)
	f.AddNode("a", 1e9)
	f.AddNode("b", 1e9)
	env.Spawn("p", func(p *Proc) {
		transfer(p, f, "a", "b", 1000) // 1us ser + 1us lat
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != Time(2*Microsecond) {
		t.Fatalf("now=%v", env.Now())
	}
	if f.TxBytes("a") != 1000 || f.RxBytes("b") != 1000 {
		t.Fatalf("tx=%d rx=%d", f.TxBytes("a"), f.RxBytes("b"))
	}
}

func TestFabricSlowerNICBounds(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", 0)
	f.AddNode("fast", 1e9)
	f.AddNode("slow", 1e8) // 10x slower
	env.Spawn("p", func(p *Proc) {
		transfer(p, f, "fast", "slow", 1000)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != Time(10*Microsecond) {
		t.Fatalf("now=%v want 10us", env.Now())
	}
}

func TestFabricTxContention(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", 0)
	f.AddNode("src", 1e9)
	f.AddNode("d1", 1e9)
	f.AddNode("d2", 1e9)
	var done []Time
	for _, dst := range []string{"d1", "d2"} {
		d := dst
		env.Spawn("p", func(p *Proc) {
			transfer(p, f, "src", d, 1000)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared tx NIC: serialized at 1us and 2us.
	if done[0] != Time(Microsecond) || done[1] != Time(2*Microsecond) {
		t.Fatalf("done=%v", done)
	}
}

func TestFabricRxIncast(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", 0)
	f.AddNode("s1", 1e9)
	f.AddNode("s2", 1e9)
	f.AddNode("dst", 1e9)
	var done []Time
	for _, src := range []string{"s1", "s2"} {
		s := src
		env.Spawn("p", func(p *Proc) {
			transfer(p, f, s, "dst", 1000)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != Time(Microsecond) || done[1] != Time(2*Microsecond) {
		t.Fatalf("done=%v", done)
	}
}

func TestFabricDisjointPairsParallel(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", 0)
	for _, n := range []string{"a", "b", "c", "d"} {
		f.AddNode(n, 1e9)
	}
	var done []Time
	env.Spawn("p1", func(p *Proc) {
		transfer(p, f, "a", "b", 1000)
		done = append(done, p.Now())
	})
	env.Spawn("p2", func(p *Proc) {
		transfer(p, f, "c", "d", 1000)
		done = append(done, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Disjoint pairs proceed in parallel: both complete at 1us.
	if done[0] != Time(Microsecond) || done[1] != Time(Microsecond) {
		t.Fatalf("done=%v", done)
	}
}

func TestFabricUnknownNodePanics(t *testing.T) {
	env := NewEnv(1)
	f := NewFabric(env, "eth", 0)
	f.AddNode("a", 1e9)
	env.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		transfer(p, f, "a", "ghost", 10)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAddNodeTwicePanics: a node is attached once, so no Link is left booking
// a NIC the fabric no longer holds.
func TestAddNodeTwicePanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	f := NewFabric(env, "eth", 0)
	f.AddNode("a", 1e9)
	l := f.Link("a", "a")
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `node "a" attached twice`) {
			t.Fatalf("panic %q, want the second attach named", msg)
		}
		if f.nodes["a"] != l.src {
			t.Fatal("the second attach replaced the NIC")
		}
	}()
	f.AddNode("a", 2e9)
}

// TestLinkSeesFaultsSetAfterIt: the fault state lives on the NICs, so every
// fault set after a Link was resolved applies to its next transfer, and
// ClearFaults lifts it again.
func TestLinkSeesFaultsSetAfterIt(t *testing.T) {
	const bytes = 1000 // 1us at 1e9 B/s
	for _, c := range []struct {
		name      string
		fault     func(f *Fabric)
		arrive    Duration
		delivered bool
		// cleared is the arrival of a second frame after ClearFaults.
		cleared Duration
	}{
		{"healthy", func(*Fabric) {}, 2 * Microsecond, true, 3 * Microsecond},
		{"drop", func(f *Fabric) { f.SetDropProb("b", 1) }, 2 * Microsecond, false, 3 * Microsecond},
		{"partition", func(f *Fabric) { f.SetPartitionGroup("a", 1); f.SetPartitionGroup("b", 2) }, 2 * Microsecond, false, 3 * Microsecond},
		{"bandwidth", func(f *Fabric) { f.SetBandwidthFactor("a", 0.5) }, 3 * Microsecond, true, 4 * Microsecond},
		{"latency", func(f *Fabric) { f.SetExtraLatency("b", 5*Microsecond) }, 7 * Microsecond, true, 3 * Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv(1)
			defer env.Shutdown()
			f := NewFabric(env, "eth", Microsecond)
			f.AddNode("a", 1e9)
			f.AddNode("b", 1e9)
			l := f.Link("a", "b")
			c.fault(f)
			arrive, delivered := l.book(bytes, true)
			if arrive != Time(c.arrive) || delivered != c.delivered {
				t.Fatalf("arrive %v delivered %v, want %v %v", arrive, delivered, Time(c.arrive), c.delivered)
			}
			f.ClearFaults()
			if arrive, delivered = l.book(bytes, true); arrive != Time(c.cleared) || !delivered {
				t.Fatalf("after ClearFaults: arrive %v delivered %v, want %v true", arrive, delivered, Time(c.cleared))
			}
		})
	}
}

// TestLinkBooksLikeNames: six senders over a four-node fabric, each on a Link
// resolved before any fault, change faults on random nodes as they go. Every
// arrival, every drop and the bytes booked equal the figures the name-keyed
// form (Fabric.TransferFrameThen(src, dst, …), which looked both NICs up per
// frame) recorded for the same seeds.
func TestLinkBooksLikeNames(t *testing.T) {
	for _, want := range []struct {
		seed           int64
		sum            uint64
		frames         int
		dropped, bytes int64
	}{
		{1, 0xa1d4087741c0a855, 1800, 857, 59932239},
		{7, 0x53e10c4a0fdbb5fa, 1800, 842, 59623366},
		{42, 0x8b2b13eb1e91d149, 1800, 899, 60263516},
	} {
		env := NewEnv(want.seed)
		rng := rand.New(rand.NewSource(want.seed))
		f := NewFabric(env, "eth", Microsecond)
		nodes := []string{"a", "b", "c", "d"}
		for i, n := range nodes {
			f.AddNode(n, float64(i+1)*1e9)
		}
		h := fnv.New64a()
		frames := 0
		for i := range 6 {
			l := f.Link(nodes[i%4], nodes[(i+1+i/4)%4])
			steps := rand.New(rand.NewSource(rng.Int63()))
			env.Spawn(fmt.Sprint("sender", i), func(p *Proc) {
				for k := range 300 {
					p.Wait(Duration(steps.Intn(5)) * Microsecond)
					switch n := nodes[steps.Intn(4)]; steps.Intn(12) {
					case 0:
						f.SetDropProb(n, steps.Float64()*0.4)
					case 1:
						f.SetExtraLatency(n, Duration(steps.Intn(20))*Microsecond)
					case 2:
						f.SetBandwidthFactor(n, steps.Float64())
					case 3:
						f.SetPartitionGroup(n, steps.Intn(3))
					case 4:
						if k%50 == 0 {
							f.ClearFaults()
						}
					}
					arrive, delivered, queued := l.TransferFrameThen(int64(1+steps.Intn(64<<10)), p)
					fmt.Fprintf(h, "%d:%d:%d:%v;", i, k, arrive, delivered)
					frames++
					if queued {
						p.Suspend()
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		var bytes int64
		for _, n := range nodes {
			bytes += f.TxBytes(n)
		}
		if h.Sum64() != want.sum || frames != want.frames || f.DroppedFrames() != want.dropped || bytes != want.bytes {
			t.Errorf("seed %d: log %#x, %d frames, %d dropped, %d bytes; want %#x, %d, %d, %d", want.seed,
				h.Sum64(), frames, f.DroppedFrames(), bytes, want.sum, want.frames, want.dropped, want.bytes)
		}
		env.Shutdown()
	}
}
