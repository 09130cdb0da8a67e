package doceph_test

import (
	"fmt"

	"doceph"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// runClient runs body as the cluster's client proc, named name, with the
// simulation to limit, and panics unless body finished.
func runClient(cl *doceph.Cluster, name string, limit sim.Duration, body func(p *sim.Proc)) {
	done := false
	cl.Env.Spawn(name, func(p *sim.Proc) {
		p.SetThread(sim.NewThread(name, "client"))
		body(p)
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(limit)); err != nil || !done {
		panic(fmt.Sprintf("%s: %v (done=%v)", name, err, done))
	}
}

// ExampleNewCluster assembles a DoCeph cluster (OSDs on the DPU, BlueStore on
// the host), stores and reads back an object through the full client ->
// messenger -> DPU OSD -> DMA -> host BlueStore path, and prints what each
// layer saw. The messenger's cycles are on the DPU's ARM cores; the host's
// busy time is BlueStore plus the DMA polling thread's idle burn over the
// 30 s run.
func ExampleNewCluster() {
	cl := doceph.NewCluster(doceph.ClusterConfig{Mode: doceph.DoCeph})
	defer cl.Shutdown()
	runClient(cl, "quickstart", 30*sim.Second, func(p *sim.Proc) {
		payload := make([]byte, 3<<20) // crosses the 2 MB DMA segment limit
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		data := wire.FromBytes(payload)
		if err := cl.Client.Write(p, "hello-object", data); err != nil {
			panic(err)
		}
		fmt.Printf("[%.4fs] write acknowledged (durable on %d replicas)\n",
			p.Now().Seconds(), cl.Client.Map().Replicas)
		got, err := cl.Client.Read(p, "hello-object", 0, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("[%.4fs] read back %d bytes, CRC match: %v\n",
			p.Now().Seconds(), got.Length(), got.CRC32C() == data.CRC32C())
		size, version, err := cl.Client.Stat(p, "hello-object")
		if err != nil {
			panic(err)
		}
		fmt.Printf("[%.4fs] stat: size=%d version=%d\n", p.Now().Seconds(), size, version)
	})
	for i, n := range cl.Nodes {
		eng, host := n.Bridge.EngUp.Stats(), n.Bridge.Host.Stats()
		fmt.Printf("node%d: DMA transfers=%d (%.1f MiB), host commits=%d, control RPCs=%d\n",
			i, eng.Transfers, float64(eng.Bytes)/(1<<20), host.TxnsCommitted, host.ControlRequests)
	}
	fmt.Printf("host CPU busy: %.2f core-ms | DPU ARM busy: %.2f core-ms\n",
		cl.HostCPUMerged().TotalBusy.Seconds()*1e3, cl.DPUCPUMerged().TotalBusy.Seconds()*1e3)
	// Output:
	// [0.0232s] write acknowledged (durable on 2 replicas)
	// [0.0423s] read back 3145728 bytes, CRC match: true
	// [0.0427s] stat: size=3145728 version=1
	// node0: DMA transfers=4 (3.0 MiB), host commits=2, control RPCs=1
	// node1: DMA transfers=3 (3.0 MiB), host commits=2, control RPCs=0
	// host CPU busy: 302.40 core-ms | DPU ARM busy: 31.86 core-ms
}

// Example_failover rides out the two failure modes the design must survive:
// injected DMA errors on one node's DPU/host path (segment-preserving RPC
// fallback, cooldown and a probe back, paper §4), then a crashed OSD
// (heartbeat detection, a new map epoch, CRUSH re-placement, backfill after
// the rejoin). Every write is durable throughout.
func Example_failover() {
	cl := doceph.NewCluster(doceph.ClusterConfig{Mode: doceph.DoCeph, StorageNodes: 3})
	defer cl.Shutdown()
	runClient(cl, "operator", 5*60*sim.Second, func(p *sim.Proc) {
		say := func(format string, args ...interface{}) {
			fmt.Printf("[%7.3fs] %s\n", p.Now().Seconds(), fmt.Sprintf(format, args...))
		}
		write := func(obj string) {
			if err := cl.Client.Write(p, obj, wire.FromBytes(make([]byte, 1<<20))); err != nil {
				panic(fmt.Sprintf("%s: %v", obj, err))
			}
		}
		write("before-failures")
		say("baseline write OK at epoch %d", cl.Client.Map().Epoch)

		cl.Nodes[0].Bridge.EngUp.FailEvery = 3 // every third transfer fails
		for i := 0; i < 6; i++ {
			write(fmt.Sprintf("during-dma-errors-%d", i))
		}
		px := cl.Nodes[0].Bridge.Proxy
		say("DMA errors on node0: %d segments fell back to RPC, %d cooldowns, DMA healthy=%v",
			px.Stats().FallbackSegments+px.Stats().FallbackTxns, px.Stats().CooldownEntries, px.DMAHealthy())
		cl.Nodes[0].Bridge.EngUp.FailEvery = 0
		p.Wait(6 * sim.Second) // let the cooldown expire
		// Write until a placement lands on node0 so its proxy probes the
		// recovered DMA path.
		for i := 0; i < 12 && !px.DMAHealthy(); i++ {
			write(fmt.Sprintf("after-dma-recovery-%d", i))
		}
		say("after the cooldown: probes=%d, DMA healthy=%v", px.Stats().Probes, px.DMAHealthy())

		cl.Nodes[2].OSD.Fail()
		p.Wait(12 * sim.Second) // heartbeat grace + map propagation
		say("osd.2 crashed: epoch %d, osd.2 up=%v", cl.Client.Map().Epoch, cl.Client.Map().IsUp(2))
		for i := 0; i < 4; i++ {
			obj := fmt.Sprintf("after-osd-crash-%d", i)
			write(obj)
			pg := cl.Client.Map().PGForObject(obj)
			say("  %s -> PG %d acting %v", obj, pg, cl.Client.Map().ActingSet(pg))
		}

		cl.Nodes[2].OSD.Recover()
		cl.Mon.MarkUp(2)
		p.Wait(30 * sim.Second) // map propagation + backfill
		var recovered, pushes int64
		for _, n := range cl.Nodes {
			recovered += n.OSD.Stats().ObjectsRecovered
			pushes += n.OSD.Stats().PushesServed
		}
		say("osd.2 restarted: epoch %d, osd.2 up=%v, backfill pushed %d objects (%d served)",
			cl.Client.Map().Epoch, cl.Client.Map().IsUp(2), recovered, pushes)
		write("after-rejoin")
		p.Wait(6 * sim.Second) // the manager has been polling all along
		fmt.Print("MGR cluster report:\n" + cl.Mgr.Report())
	})
	// Output:
	// [  0.010s] baseline write OK at epoch 1
	// [  0.067s] DMA errors on node0: 4 segments fell back to RPC, 1 cooldowns, DMA healthy=false
	// [  6.079s] after the cooldown: probes=1, DMA healthy=true
	// [ 18.079s] osd.2 crashed: epoch 3, osd.2 up=false
	// [ 18.089s]   after-osd-crash-0 -> PG 49 acting [1 0]
	// [ 18.100s]   after-osd-crash-1 -> PG 30 acting [0 1]
	// [ 18.109s]   after-osd-crash-2 -> PG 11 acting [0 1]
	// [ 18.120s]   after-osd-crash-3 -> PG 120 acting [0 1]
	// [ 48.120s] osd.2 restarted: epoch 4, osd.2 up=true, backfill pushed 11 objects (7 served)
	// MGR cluster report:
	// cluster status (3 daemons reporting)
	//   osd.0    epoch 4  writes 9  reads 0  rep-ops 2  recovered 6  scrub-errs 0
	//   osd.1    epoch 4  writes 2  reads 0  rep-ops 9  recovered 5  scrub-errs 0
	//   osd.2    epoch 4  writes 2  reads 0  rep-ops 2  recovered 0  scrub-errs 0
	//   totals: 13 writes, 27.3 MB written, 0 scrub errors
}

// Example_dashboard is an operator's view of a cluster under a steady write
// load: every six seconds the MGR's health grade and per-OSD write rates, with
// a daemon's rate "stale" once its reports stop. osd.1 dies (HEALTH_WARN) and
// after its restart the cluster returns to HEALTH_OK.
func Example_dashboard() {
	cfg := doceph.ClusterConfig{Mode: doceph.DoCeph, StorageNodes: 3}
	cfg.Client.OpTimeout = 5 * doceph.Second // fail over quickly
	cl := doceph.NewCluster(cfg)
	defer cl.Shutdown()
	for w := 0; w < 4; w++ {
		id := w
		cl.Env.SpawnDaemon(fmt.Sprintf("writer-%d", id), func(p *sim.Proc) {
			p.SetThread(sim.NewThread("writer", "client"))
			for i := 0; ; i++ {
				obj := fmt.Sprintf("load-%d-%d", id, i)
				if err := cl.Client.Write(p, obj, wire.FromBytes(make([]byte, 512<<10))); err != nil {
					fmt.Printf("writer %d: %v\n", id, err)
				}
				p.Wait(200 * sim.Millisecond)
			}
		})
	}
	runClient(cl, "operator", 3*60*sim.Second, func(p *sim.Proc) {
		rate := func(src string) string {
			if cl.Mgr.Stale(src, p.Now(), 12*sim.Second) {
				return "stale"
			}
			return fmt.Sprintf("%.1f", cl.Mgr.Rate(src, "client_writes"))
		}
		show := func(n int) {
			for i := 0; i < n; i++ {
				p.Wait(6 * sim.Second)
				fmt.Printf("[%4.1fs] %-26s writes/s osd.0=%s osd.1=%s osd.2=%s\n",
					p.Now().Seconds(), cl.Mgr.AssessHealth(cl.Mon.Map()),
					rate("osd.0"), rate("osd.1"), rate("osd.2"))
			}
		}
		show(3)
		fmt.Println("-- killing osd.1")
		cl.Nodes[1].OSD.Fail()
		show(3)
		fmt.Println("-- restarting osd.1")
		cl.Nodes[1].OSD.Recover()
		cl.Mon.MarkUp(1)
		show(4)
		fmt.Print("MGR report:\n" + cl.Mgr.Report())
	})
	// Output:
	// [ 6.0s] HEALTH_OK                  writes/s osd.0=0.0 osd.1=0.0 osd.2=0.0
	// [12.0s] HEALTH_OK                  writes/s osd.0=4.4 osd.1=6.4 osd.2=8.4
	// [18.0s] HEALTH_OK                  writes/s osd.0=6.0 osd.1=5.2 osd.2=8.0
	// -- killing osd.1
	// [24.0s] HEALTH_WARN; 1 OSD(s) down writes/s osd.0=4.8 osd.1=5.2 osd.2=5.2
	// [30.0s] HEALTH_WARN; 1 OSD(s) down writes/s osd.0=2.4 osd.1=stale osd.2=4.4
	// [36.0s] HEALTH_WARN; 1 OSD(s) down writes/s osd.0=7.6 osd.1=stale osd.2=11.6
	// -- restarting osd.1
	// [42.0s] HEALTH_OK                  writes/s osd.0=5.4 osd.1=1.5 osd.2=9.2
	// [48.0s] HEALTH_OK                  writes/s osd.0=5.8 osd.1=5.4 osd.2=8.4
	// [54.0s] HEALTH_OK                  writes/s osd.0=4.6 osd.1=6.2 osd.2=8.4
	// [60.0s] HEALTH_OK                  writes/s osd.0=6.0 osd.1=6.0 osd.2=7.6
	// MGR report:
	// cluster status (3 daemons reporting)
	//   osd.0    epoch 4  writes 310  reads 0  rep-ops 403  recovered 334  scrub-errs 0
	//   osd.1    epoch 4  writes 210  reads 0  rep-ops 293  recovered 0  scrub-errs 0
	//   osd.2    epoch 4  writes 452  reads 0  rep-ops 274  recovered 330  scrub-errs 0
	//   totals: 972 writes, 1018.2 MB written, 0 scrub errors
}
