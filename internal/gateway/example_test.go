package gateway_test

import (
	"fmt"

	"doceph/internal/cluster"
	"doceph/internal/gateway"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// ExampleNew runs RGW-style object storage (the third of the paper's §2.1
// interfaces) over a DoCeph cluster. A bucket keeps its listing as replicated
// omap entries on an index object, so the metadata path rides the proxy's
// RPC/omap machinery while object bodies take the DMA data plane.
func ExampleNew() {
	cl := cluster.New(cluster.Config{Mode: cluster.DoCeph})
	defer cl.Shutdown()
	gw := gateway.New(cl.Client)
	done := false
	cl.Env.Spawn("s3-user", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("s3-user", "client"))
		if err := gw.CreateBucket(p, "ml-datasets"); err != nil {
			panic(err)
		}
		for _, up := range []struct {
			key  string
			size int
		}{
			{"train/shard-000.tfrecord", 4 << 20},
			{"train/shard-001.tfrecord", 4 << 20},
			{"val/shard-000.tfrecord", 1 << 20},
			{"manifest.json", 2 << 10},
		} {
			body := make([]byte, up.size)
			for i := range body {
				body[i] = byte(len(up.key) + i)
			}
			if err := gw.Put(p, "ml-datasets", up.key, wire.FromBytes(body)); err != nil {
				panic(err)
			}
			fmt.Printf("[%.4fs] PUT %s (%d bytes)\n", p.Now().Seconds(), up.key, up.size)
		}
		keys, err := gw.List(p, "ml-datasets")
		if err != nil {
			panic(err)
		}
		fmt.Println("LIST ml-datasets:")
		for _, k := range keys {
			size, etag, err := gw.Head(p, "ml-datasets", k)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-26s %8d bytes  etag %08x\n", k, size, etag)
		}
		body, err := gw.Get(p, "ml-datasets", "manifest.json")
		if err != nil {
			panic(err)
		}
		fmt.Printf("[%.4fs] GET manifest.json: %d bytes, etag %08x\n",
			p.Now().Seconds(), body.Length(), body.CRC32C())
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(2 * 60 * sim.Second)); err != nil || !done {
		panic(fmt.Sprintf("%v (done=%v)", err, done))
	}
	var dmaTxns, controlCalls int64
	for _, n := range cl.Nodes {
		dmaTxns += n.Bridge.Proxy.Stats().DataPlaneTxns
		controlCalls += n.Bridge.Proxy.Stats().ControlCalls
	}
	fmt.Printf("DPU proxies: %d data-plane txns (bodies and indexes), %d control calls\n",
		dmaTxns, controlCalls)
	// Output:
	// [0.0404s] PUT train/shard-000.tfrecord (4194304 bytes)
	// [0.0765s] PUT train/shard-001.tfrecord (4194304 bytes)
	// [0.0893s] PUT val/shard-000.tfrecord (1048576 bytes)
	// [0.0947s] PUT manifest.json (2048 bytes)
	// LIST ml-datasets:
	//   manifest.json                  2048 bytes  etag 0089019f
	//   train/shard-000.tfrecord    4194304 bytes  etag a60a54b0
	//   train/shard-001.tfrecord    4194304 bytes  etag a60a54b0
	//   val/shard-000.tfrecord      1048576 bytes  etag be702e75
	// [0.1009s] GET manifest.json: 2048 bytes, etag 0089019f
	// DPU proxies: 20 data-plane txns (bodies and indexes), 11 control calls
}
