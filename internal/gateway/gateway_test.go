package gateway

import (
	"errors"
	"fmt"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

func runGW(t *testing.T, mode cluster.Mode, body func(p *sim.Proc, g *Gateway, cl *cluster.Cluster)) {
	t.Helper()
	cl := cluster.New(cluster.Config{Mode: mode})
	g := New(cl.Client)
	done := false
	cl.Env.Spawn("gw-test", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("gw-test", "client"))
		body(p, g, cl)
		done = true
	})
	err := cl.Env.RunUntil(sim.Time(10 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	cl.Shutdown()
}

func doc(n int, seed byte) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed)*7 + i*13)
	}
	return wire.FromBytes(b)
}

func TestBucketLifecycle(t *testing.T) {
	runGW(t, cluster.DoCeph, func(p *sim.Proc, g *Gateway, cl *cluster.Cluster) {
		if err := g.CreateBucket(p, "photos"); err != nil {
			t.Fatal(err)
		}
		if err := g.CreateBucket(p, "photos"); !errors.Is(err, ErrBucketExists) {
			t.Fatalf("duplicate create: %v", err)
		}
		keys, err := g.List(p, "photos")
		if err != nil || len(keys) != 0 {
			t.Fatalf("empty list=%v err=%v", keys, err)
		}
		if _, err := g.List(p, "ghost"); !errors.Is(err, ErrNoBucket) {
			t.Fatalf("list ghost: %v", err)
		}
		if err := g.DeleteBucket(p, "photos"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.List(p, "photos"); !errors.Is(err, ErrNoBucket) {
			t.Fatalf("list after delete: %v", err)
		}
	})
}

func TestPutGetHeadListDelete(t *testing.T) {
	runGW(t, cluster.DoCeph, func(p *sim.Proc, g *Gateway, cl *cluster.Cluster) {
		if err := g.CreateBucket(p, "b"); err != nil {
			t.Fatal(err)
		}
		// A slice, not a map: puts and gets run in this order every time, so
		// a failure reproduces.
		contents := []struct {
			key  string
			body *wire.Bufferlist
		}{
			{"zebra.jpg", doc(300_000, 1)},
			{"apple.txt", doc(1_000, 2)},
			{"mango/1.md", doc(50_000, 3)},
		}
		for _, c := range contents {
			if err := g.Put(p, "b", c.key, c.body); err != nil {
				t.Fatalf("put %s: %v", c.key, err)
			}
		}
		keys, err := g.List(p, "b")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"apple.txt", "mango/1.md", "zebra.jpg"}
		if len(keys) != 3 {
			t.Fatalf("keys=%v", keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("keys=%v want sorted %v", keys, want)
			}
		}
		for _, c := range contents {
			got, err := g.Get(p, "b", c.key)
			if err != nil || got.CRC32C() != c.body.CRC32C() {
				t.Fatalf("get %s: %v", c.key, err)
			}
			size, etag, err := g.Head(p, "b", c.key)
			if err != nil || size != uint64(c.body.Length()) || etag != c.body.CRC32C() {
				t.Fatalf("head %s: size=%d etag=%08x err=%v", c.key, size, etag, err)
			}
		}
		if err := g.Delete(p, "b", "apple.txt"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Get(p, "b", "apple.txt"); !errors.Is(err, ErrNoObject) {
			t.Fatalf("get deleted: %v", err)
		}
		if keys, _ := g.List(p, "b"); len(keys) != 2 {
			t.Fatalf("keys after delete=%v", keys)
		}
		if err := g.DeleteBucket(p, "b"); !errors.Is(err, ErrBucketNotEmpty) {
			t.Fatalf("delete non-empty: %v", err)
		}
	})
}

func TestGatewayErrors(t *testing.T) {
	runGW(t, cluster.Baseline, func(p *sim.Proc, g *Gateway, cl *cluster.Cluster) {
		if err := g.Put(p, "nope", "k", doc(10, 1)); !errors.Is(err, ErrNoBucket) {
			t.Fatalf("put: %v", err)
		}
		if _, err := g.Get(p, "nope", "k"); !errors.Is(err, ErrNoBucket) {
			t.Fatalf("get: %v", err)
		}
		if err := g.CreateBucket(p, "b"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Head(p, "b", "ghost"); !errors.Is(err, ErrNoObject) {
			t.Fatalf("head: %v", err)
		}
		if err := g.Delete(p, "b", "ghost"); !errors.Is(err, ErrNoObject) {
			t.Fatalf("delete: %v", err)
		}
	})
}

func TestOverwriteUpdatesIndex(t *testing.T) {
	runGW(t, cluster.DoCeph, func(p *sim.Proc, g *Gateway, cl *cluster.Cluster) {
		if err := g.CreateBucket(p, "b"); err != nil {
			t.Fatal(err)
		}
		v1, v2 := doc(1000, 4), doc(2000, 5)
		if err := g.Put(p, "b", "k", v1); err != nil {
			t.Fatal(err)
		}
		if err := g.Put(p, "b", "k", v2); err != nil {
			t.Fatal(err)
		}
		size, etag, err := g.Head(p, "b", "k")
		if err != nil || size != 2000 || etag != v2.CRC32C() {
			t.Fatalf("head after overwrite: size=%d err=%v", size, err)
		}
		got, err := g.Get(p, "b", "k")
		if err != nil || got.CRC32C() != v2.CRC32C() {
			t.Fatalf("get: %v", err)
		}
	})
}

// The bucket index (omap) must be replicated: after the index object's
// primary fails, listings still work against the surviving replica.
func TestIndexSurvivesOSDFailure(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline, StorageNodes: 3})
	g := New(cl.Client)
	done := false
	cl.Env.Spawn("gw-failover", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("gw-failover", "client"))
		if err := g.CreateBucket(p, "durable"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 6; i++ {
			if err := g.Put(p, "durable", fmt.Sprintf("obj-%d", i), doc(20_000, byte(i))); err != nil {
				t.Error(err)
				return
			}
		}
		// Kill the index object's primary.
		idx := cl.Client.Map().PGForObject("gw.index.durable")
		victim := cl.Client.Map().Primary(idx)
		cl.Nodes[victim].OSD.Fail()
		p.Wait(15 * sim.Second)
		keys, err := g.List(p, "durable")
		if err != nil || len(keys) != 6 {
			t.Errorf("list after failover: keys=%v err=%v", keys, err)
			return
		}
		got, err := g.Get(p, "durable", "obj-3")
		if err != nil || got.CRC32C() != doc(20_000, 3).CRC32C() {
			t.Errorf("get after failover: %v", err)
			return
		}
		done = true
	})
	err := cl.Env.RunUntil(sim.Time(10 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	cl.Shutdown()
}
