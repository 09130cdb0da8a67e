package sim

import "testing"

// transfer sends a frame by awaiting Fabric.TransferFrameThen.
func transfer(p *Proc, f *Fabric, src, dst string, bytes int64) {
	if _, _, registered := f.TransferFrameThen(src, dst, bytes, p); registered {
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
