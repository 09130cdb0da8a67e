package osd

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"doceph/internal/bluestore"
	"doceph/internal/cephmsg"
	"doceph/internal/crush"
	"doceph/internal/messenger"
	"doceph/internal/mon"
	"doceph/internal/osdmap"
	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// testCluster wires a baseline mini-Ceph: one client node plus hosts storage
// nodes, each running one OSD + BlueStore on the host CPU (the paper's
// Baseline layout, §5.1).
type testCluster struct {
	env     *sim.Env
	mon     *mon.Monitor
	osds    []*OSD
	stores  []*bluestore.Store
	hostCPU []*sim.CPU
	client  *rados.Client
	// addClient attaches one more messenger endpoint to the client node, for
	// tests that speak cephmsg to the OSDs themselves.
	addClient func(name string) *messenger.Messenger
}

func newTestCluster(t *testing.T, hosts int, replicas int, wireEncode bool) *testCluster {
	t.Helper()
	return newTestClusterWith(t, hosts, replicas, wireEncode, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0",
	})
}

func newTestClusterCfg(t *testing.T, hosts int, replicas int, ocfg Config) *testCluster {
	t.Helper()
	return newTestClusterWith(t, hosts, replicas, false, ocfg)
}

func newTestClusterWith(t *testing.T, hosts int, replicas int, wireEncode bool, ocfg Config) *testCluster {
	t.Helper()
	return newTestClusterFull(t, hosts, replicas, 0, wireEncode, ocfg)
}

// newTestClusterFull additionally sets the map's min_size write-quorum floor
// (0 keeps the gate off, the legacy shape every other test uses).
func newTestClusterFull(t *testing.T, hosts, replicas, minSize int, wireEncode bool, ocfg Config) *testCluster {
	t.Helper()
	return newTestClusterMsgr(t, hosts, replicas, minSize, messenger.Config{WireEncode: wireEncode}, ocfg)
}

// newTestClusterMsgr exposes the full messenger config — the streaming
// tests need the chunk-pipelined transport with a small chunk size.
func newTestClusterMsgr(t *testing.T, hosts, replicas, minSize int, mcfg messenger.Config, ocfg Config) *testCluster {
	t.Helper()
	env := sim.NewEnv(7)
	fabric := sim.NewFabric(env, "eth100g", 5*sim.Microsecond)
	reg := messenger.NewRegistry()

	crushMap := crush.BuildUniform(hosts, 1, 1.0)
	baseMap := osdmap.New(crushMap, 64, replicas)
	baseMap.MinSize = minSize

	fabric.AddNode("client-node", 12.5e9)
	clientCPU := sim.NewCPU(env, "client-cpu", 16, 3.0, 2000)

	// Monitor lives on the first storage node.
	tc := &testCluster{env: env}
	for h := 0; h < hosts; h++ {
		node := fmt.Sprintf("node%d", h)
		fabric.AddNode(node, 12.5e9)
		cpu := sim.NewCPU(env, "host-cpu"+node, 48, 3.7, 2000)
		disk := sim.NewDisk(env, "ssd"+node, 530e6, 560e6, 30*sim.Microsecond)
		tc.hostCPU = append(tc.hostCPU, cpu)
		if h == 0 {
			mmsgr := messenger.New(env, reg, fabric, cpu, "mon.0", node, mcfg)
			tc.mon = mon.New(env, cpu, mmsgr, baseMap.Next(), mon.Config{})
		}
		store := bluestore.New(env, fmt.Sprintf("bs%d", h), cpu, disk, bluestore.Config{})
		tc.stores = append(tc.stores, store)
		omsgr := messenger.New(env, reg, fabric, cpu, Name(int32(h)), node, mcfg)
		o := New(env, cpu, int32(h), omsgr, store, baseMap, ocfg)
		tc.osds = append(tc.osds, o)
		tc.mon.Subscribe(Name(int32(h)))
	}
	tc.addClient = func(name string) *messenger.Messenger {
		return messenger.New(env, reg, fabric, clientCPU, name, "client-node", mcfg)
	}
	cmsgr := tc.addClient("client.0")
	tc.client = rados.New(env, clientCPU, cmsgr, baseMap, rados.Config{})
	tc.mon.Subscribe("client.0")
	return tc
}

func (tc *testCluster) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	tc.env.Spawn("test-body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tester", "client"))
		body(p)
		done = true
	})
	err := tc.env.RunUntil(sim.Time(10 * 60 * sim.Second))
	if !done {
		t.Fatalf("test body did not finish: %v", err)
	}
	tc.env.Shutdown()
}

func payload(n int, seed byte) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*131)
	}
	return wire.FromBytes(b)
}

func TestWriteReadThroughCluster(t *testing.T) {
	tc := newTestCluster(t, 2, 2, true)
	tc.run(t, func(p *sim.Proc) {
		data := payload(200_000, 3)
		if err := tc.client.Write(p, "obj-1", data); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := tc.client.Read(p, "obj-1", 0, 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !got.Equal(data) {
			t.Fatal("read-back mismatch")
		}
	})
}

func TestReplicationToAllActingOSDs(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		data := payload(100_000, 9)
		if err := tc.client.Write(p, "obj-rep", data); err != nil {
			t.Fatalf("write: %v", err)
		}
		// With 2 hosts and 2 replicas, both stores must hold the object.
		pg := tc.client.Map().PGForObject("obj-rep")
		coll := fmt.Sprintf("pg.%d", pg)
		for i, st := range tc.stores {
			bl, err := st.Read(p, coll, "obj-rep", 0, 0)
			if err != nil {
				t.Fatalf("store %d: %v", i, err)
			}
			if bl.CRC32C() != data.CRC32C() {
				t.Fatalf("store %d: content mismatch", i)
			}
		}
		primary := tc.client.Map().Primary(pg)
		secondary := 1 - primary
		if tc.osds[primary].Stats().ClientWrites != 1 {
			t.Fatal("primary did not count the client write")
		}
		if tc.osds[secondary].Stats().RepOpsServed != 1 {
			t.Fatal("secondary did not serve the rep op")
		}
	})
}

func TestWriteAckWaitsForReplicaDurability(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "obj-ack", payload(50_000, 1)); err != nil {
			t.Fatal(err)
		}
		// At ack time both stores have committed the data (write-through).
		pg := tc.client.Map().PGForObject("obj-ack")
		coll := fmt.Sprintf("pg.%d", pg)
		for i, st := range tc.stores {
			if _, err := st.Stat(p, coll, "obj-ack"); err != nil {
				t.Fatalf("store %d not durable at ack: %v", i, err)
			}
		}
	})
}

func TestStatAndDelete(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "obj-s", payload(12_345, 5)); err != nil {
			t.Fatal(err)
		}
		size, ver, err := tc.client.Stat(p, "obj-s")
		if err != nil || size != 12_345 || ver == 0 {
			t.Fatalf("stat size=%d ver=%d err=%v", size, ver, err)
		}
		if err := tc.client.Delete(p, "obj-s"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tc.client.Stat(p, "obj-s"); !errors.Is(err, rados.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		if _, err := tc.client.Read(p, "obj-ghost", 0, 0); !errors.Is(err, rados.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestConcurrentClientsDistinctObjects(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	const n = 24
	oks := 0
	for i := 0; i < n; i++ {
		obj := fmt.Sprintf("obj-c%d", i)
		tc.env.Spawn("writer", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("w", "client"))
			if err := tc.client.Write(p, obj, payload(64_000, byte(i))); err != nil {
				t.Errorf("%s: %v", obj, err)
				return
			}
			got, err := tc.client.Read(p, obj, 0, 0)
			if err != nil || got.Length() != 64_000 {
				t.Errorf("%s read: %v", obj, err)
				return
			}
			oks++
		})
	}
	if err := tc.env.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	tc.env.Shutdown()
	if oks != n {
		t.Fatalf("oks=%d want %d", oks, n)
	}
}

func TestSequentialOverwritesLastWins(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		for round := 0; round < 5; round++ {
			if err := tc.client.Write(p, "obj-ow", payload(10_000, byte(round))); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tc.client.Read(p, "obj-ow", 0, 0)
		if err != nil || !got.Equal(payload(10_000, 4)) {
			t.Fatalf("read err=%v", err)
		}
	})
}

func TestOSDFailureDetectionAndFailover(t *testing.T) {
	tc := newTestCluster(t, 3, 2, false)
	tc.run(t, func(p *sim.Proc) {
		// Warm up: confirm traffic flows.
		if err := tc.client.Write(p, "pre-fail", payload(10_000, 1)); err != nil {
			t.Fatal(err)
		}
		// Objects whose primary is about to die: the surviving replica must
		// serve them once the map moves on.
		var held []string
		for i := 0; len(held) < 4; i++ {
			obj := fmt.Sprintf("held-%d", i)
			if tc.client.Map().Primary(tc.client.Map().PGForObject(obj)) != 2 {
				continue
			}
			if err := tc.client.Write(p, obj, payload(20_000, byte(len(held)))); err != nil {
				t.Fatalf("%s: %v", obj, err)
			}
			held = append(held, obj)
		}
		victim := tc.osds[2]
		victim.Fail()
		// Heartbeat grace is 5 s; give detection + map propagation 15 s.
		p.Wait(15 * sim.Second)
		if tc.mon.EpochBumps() == 0 {
			t.Fatal("monitor never published a failure epoch")
		}
		if tc.client.Map().IsUp(2) {
			t.Fatal("client map still has osd.2 up")
		}
		for i, obj := range held {
			bl, err := tc.client.Read(p, obj, 0, 0)
			if err != nil {
				t.Fatalf("read %s with its primary down: %v", obj, err)
			}
			if bl.CRC32C() != payload(20_000, byte(i)).CRC32C() {
				t.Fatalf("read %s with its primary down: wrong data", obj)
			}
		}
		// All placements now avoid the dead OSD and writes still succeed.
		for i := 0; i < 10; i++ {
			obj := fmt.Sprintf("post-fail-%d", i)
			if err := tc.client.Write(p, obj, payload(20_000, byte(i))); err != nil {
				t.Fatalf("%s: %v", obj, err)
			}
			pg := tc.client.Map().PGForObject(obj)
			for _, id := range tc.client.Map().ActingSet(pg) {
				if id == 2 {
					t.Fatal("new placement still uses failed OSD")
				}
			}
		}
	})
}

func TestHeartbeatsFlowBetweenOSDs(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		p.Wait(10 * sim.Second)
		for i, o := range tc.osds {
			if len(o.lastSeen) == 0 {
				t.Fatalf("osd %d never heard a heartbeat", i)
			}
		}
	})
}

func TestWrongPrimaryRedirect(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		// Find an object whose primary is osd.1, then aim it at osd.0 by
		// handing the client a stale map where osd.1 appears down.
		var obj string
		for i := 0; ; i++ {
			obj = fmt.Sprintf("probe-%d", i)
			pg := tc.client.Map().PGForObject(obj)
			if tc.client.Map().Primary(pg) == 1 {
				break
			}
		}
		// Write normally first so the real path works.
		if err := tc.client.Write(p, obj, payload(1000, 1)); err != nil {
			t.Fatal(err)
		}
		if tc.osds[0].Stats().WrongPrimary != 0 {
			t.Fatal("unexpected wrong-primary before the probe")
		}
	})
}

func TestOpShardsDefaultAndClamp(t *testing.T) {
	if got := (Config{}).withDefaults().OpShards; got != 1 {
		t.Fatalf("default OpShards=%d, want 1", got)
	}
	// More shards than workers would leave shards with no server; the
	// config clamps instead.
	if got := (Config{OpWorkers: 2, OpShards: 8}).withDefaults().OpShards; got != 2 {
		t.Fatalf("clamped OpShards=%d, want 2", got)
	}
	if got := (Config{OpWorkers: 8, OpShards: 4}).withDefaults().OpShards; got != 4 {
		t.Fatalf("OpShards=%d, want 4", got)
	}
}

func TestOpShardRoutesByPG(t *testing.T) {
	tc := newTestClusterCfg(t, 1, 1, Config{OpWorkers: 8, OpShards: 4})
	tc.run(t, func(p *sim.Proc) {
		o := tc.osds[0]
		if got := len(o.opqs); got != 4 {
			t.Fatalf("shards=%d, want 4", got)
		}
		// Every message type of one PG must ride the same shard: client op
		// (PG derived from the object), replication sub-op, PG push and
		// scrub all keyed by the PG id.
		for _, obj := range []string{"alpha", "beta", "gamma", "delta"} {
			pg := o.curMap.PGForObject(obj)
			want := int(pg % 4)
			if got := o.opShard(&cephmsg.MOSDOp{Object: obj}); got != want {
				t.Fatalf("%s: client op shard %d, want %d", obj, got, want)
			}
			for _, m := range []cephmsg.Message{
				&cephmsg.MRepOp{PGID: pg},
				&cephmsg.MPGPush{PGID: pg},
				&cephmsg.MScrub{PGID: pg},
			} {
				if got := o.opShard(m); got != want {
					t.Fatalf("%s: %T shard %d, want %d", obj, m, got, want)
				}
			}
		}
	})
}

func TestShardedDispatchPreservesSemantics(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{OpWorkers: 8, OpShards: 4})
	tc.run(t, func(p *sim.Proc) {
		// Concurrent writers across many PGs, then read everything back.
		const writers, objs = 4, 6
		done := 0
		for w := 0; w < writers; w++ {
			w := w
			tc.env.Spawn(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				wp.SetThread(sim.NewThread(fmt.Sprintf("writer%d", w), "client"))
				for i := 0; i < objs; i++ {
					obj := fmt.Sprintf("shard-obj-%d-%d", w, i)
					if err := tc.client.Write(wp, obj, payload(64<<10, byte(w*objs+i))); err != nil {
						t.Errorf("write %s: %v", obj, err)
					}
				}
				done++
			})
		}
		for done < writers {
			p.Wait(10 * sim.Millisecond)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < objs; i++ {
				obj := fmt.Sprintf("shard-obj-%d-%d", w, i)
				got, err := tc.client.Read(p, obj, 0, 0)
				if err != nil {
					t.Fatalf("read %s: %v", obj, err)
				}
				if !got.Equal(payload(64<<10, byte(w*objs+i))) {
					t.Fatalf("%s: read-back mismatch", obj)
				}
			}
		}
		// Per-PG ordering end to end: sequential overwrites of one object
		// must leave the last payload.
		for v := 0; v < 3; v++ {
			if err := tc.client.Write(p, "versioned", payload(32<<10, byte(100+v))); err != nil {
				t.Fatalf("overwrite %d: %v", v, err)
			}
		}
		got, err := tc.client.Read(p, "versioned", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload(32<<10, 102)) {
			t.Fatal("overwrite order broken: stale payload read back")
		}
	})
}

// writeAllocCeiling is one above what a replicated write of a new object
// allocates today (8.91: the primary's mutation record and the replica's
// repApply; BlueStore's txc on each side; the new object's onode on each side,
// plus about 0.9 for the collections' object maps growing to hold them; the
// client's call and its MOSDOp). The next record somebody adds to the write
// path fails here, not in a benchmark.
const writeAllocCeiling = 10

// TestReplicatedWriteAllocationBudget holds one replicated write of a new
// object — client call, primary commit, one sub-op, replica commit, both acks
// — to its allocation budget on the two-OSD rig, heartbeats off so that only
// writes run in the measured window.
func TestReplicatedWriteAllocationBudget(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{})
	const warm, writes = 512, 256
	names := make([]string, warm+writes)
	for i := range names {
		names[i] = fmt.Sprintf("budget-%d", i)
	}
	data := payload(64<<10, 1)
	tc.run(t, func(p *sim.Proc) {
		write := func(first, n int) {
			for _, obj := range names[first : first+n] {
				if err := tc.client.Write(p, obj, data); err != nil {
					t.Fatalf("%s: %v", obj, err)
				}
			}
		}
		write(0, warm) // pools, maps, queues and every PG's lock reach their size
		for _, o := range tc.osds {
			if len(o.pgLocks) != int(o.curMap.PGCount) {
				t.Fatalf("%s: warm-up touched %d of %d PGs", o.name, len(o.pgLocks), o.curMap.PGCount)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write(warm, writes)
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / writes
		t.Logf("%.2f allocations, %.0f B per replicated write", per, float64(after.TotalAlloc-before.TotalAlloc)/writes)
		if per > writeAllocCeiling {
			t.Fatalf("%.2f allocations per replicated write, want at most %d", per, writeAllocCeiling)
		}
	})
}
