package rbd_test

import (
	"fmt"
	"math/rand"

	"doceph/internal/cluster"
	"doceph/internal/rbd"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// ExampleCreate runs a 64 MiB block device striped over 4 MiB objects, with a
// client-side write-through page cache, on a DoCeph cluster (RBD, the first
// of the paper's §2.1 interfaces). A database-like pattern: a bulk sequential
// load, random 8 KiB page updates above it, then a read of the load across an
// object boundary, which the write-through cache serves client-side.
func ExampleCreate() {
	cl := cluster.New(cluster.Config{Mode: cluster.DoCeph})
	defer cl.Shutdown()
	done := false
	cl.Env.Spawn("blockdevice", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("blockdevice", "client"))
		const volSize = 64 << 20
		dev, err := rbd.Create(p, cl.Client, "db-volume", volSize, rbd.DeviceConfig{
			ObjectBytes: 4 << 20,
			Cache:       rbd.CacheConfig{Enable: true},
		})
		if err != nil {
			panic(err)
		}
		img := dev.Image()
		fmt.Printf("image %q: %d MiB over %d objects of %d MiB\n",
			dev.Name(), dev.Size()>>20, img.Objects(), dev.ObjectBytes()>>20)

		bulk := make([]byte, 16<<20)
		for i := range bulk {
			bulk[i] = byte(i * 131)
		}
		start := p.Now()
		if err := dev.WriteAt(p, wire.FromBytes(bulk), 0); err != nil {
			panic(err)
		}
		fmt.Printf("bulk load: 16 MiB in %.1f ms\n", p.Now().Sub(start).Seconds()*1e3)

		r := rand.New(rand.NewSource(1))
		start = p.Now()
		const pages = 64
		for i := 0; i < pages; i++ {
			page := make([]byte, 8<<10)
			for j := range page {
				page[j] = byte(i + j)
			}
			off := int64(16<<20+r.Intn(volSize-16<<20-len(page))) &^ 8191
			if err := dev.WriteAt(p, wire.FromBytes(page), off); err != nil {
				panic(err)
			}
		}
		fmt.Printf("page updates: %d x 8 KiB in %.1f ms\n", pages, p.Now().Sub(start).Seconds()*1e3)

		got, err := dev.ReadAt(p, 3<<20, 2<<20)
		if err != nil {
			panic(err)
		}
		st := dev.Stats()
		fmt.Printf("cross-object read: %d bytes, intact=%v, cache hits=%d misses=%d (%.1f MiB cached)\n",
			got.Length(), got.CRC32C() == wire.FromBytes(bulk[3<<20:5<<20]).CRC32C(),
			st.CacheHits, st.CacheMisses, float64(st.CachedBytes)/(1<<20))

		byOSD := map[int32]int{}
		for i := int64(0); i < img.Objects(); i++ {
			byOSD[cl.Client.Map().Primary(cl.Client.Map().PGForObject(img.ObjectName(i)))]++
		}
		fmt.Printf("stripe primaries by OSD: %v\n", byOSD)
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(2 * 60 * sim.Second)); err != nil || !done {
		panic(fmt.Sprintf("%v (done=%v)", err, done))
	}
	var dma int64
	for _, n := range cl.Nodes {
		dma += n.Bridge.EngUp.Stats().Bytes
	}
	fmt.Printf("bytes through the DPU->host DMA path: %.1f MiB\n", float64(dma)/(1<<20))
	// Output:
	// image "db-volume": 64 MiB over 16 objects of 4 MiB
	// bulk load: 16 MiB in 128.7 ms
	// page updates: 64 x 8 KiB in 185.2 ms
	// cross-object read: 2097152 bytes, intact=true, cache hits=1 misses=0 (16.0 MiB cached)
	// stripe primaries by OSD: map[0:12 1:4]
	// bytes through the DPU->host DMA path: 33.0 MiB
}
