package doceph

import (
	"fmt"
	"math/rand"

	"doceph/internal/rbd"
	"doceph/internal/report"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Block-device comparison: the RBD-style striped device on both deployments,
// with the client-side write-through cache off and on. Workload geometry: a
// 32 MiB volume striped over 4 MiB objects, an 8 MiB bulk load, then two
// passes of random 16 KiB reads (the second pass re-reads the same offsets,
// so the client page cache can absorb it entirely). The read offsets are a
// pure function of the seed, so all four arms replay the identical pattern.
const (
	bdVolBytes  = 32 << 20
	bdObjBytes  = 4 << 20
	bdBulkBytes = 8 << 20
	bdReadBytes = 16 << 10
	bdReads     = 128
)

// blockDeviceRun is one arm of the block-device comparison.
type blockDeviceRun struct {
	// BulkWrite is the virtual time to stream the 8 MiB sequential load.
	BulkWrite Duration
	// ColdRead/WarmRead are the virtual times of the two random-read
	// passes; with the client cache on, WarmRead never reaches the cluster.
	ColdRead Duration
	WarmRead Duration
	// CacheHits is the client page cache's hit count (0 with it off).
	CacheHits int64
	// Intact reports that every read returned byte-identical data.
	Intact   bool
	HostUtil float64
}

func blockDeviceTable(seed int64) (*report.Table, error) {
	arms := []struct {
		name  string
		mode  Mode
		cache bool
	}{
		{"baseline rbd", Baseline, false},
		{"baseline rbd +cache", Baseline, true},
		{"doceph rbd", DoCeph, false},
		{"doceph rbd +cache", DoCeph, true},
	}
	out := make([]blockDeviceRun, len(arms))
	err := runParallel(len(arms), func(i int) error {
		res, err := runBlockDeviceCell(arms[i].mode, arms[i].cache, seed)
		if err != nil {
			return fmt.Errorf("blockdevice %q: %w", arms[i].name, err)
		}
		if arms[i].cache && res.CacheHits == 0 {
			return fmt.Errorf("blockdevice %q: not engaged: client cache enabled but never hit", arms[i].name)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "RBD-style striped block device: 8MiB load + 2x128 random 16KiB reads",
		Header: []string{"variant", "bulk write (ms)", "cold reads (ms)",
			"warm reads (ms)", "cache hits", "intact", "host CPU"},
		Notes: []string{"32MiB volume over 4MiB stripe objects; +cache = client-side write-through page cache (default off) — the bulk load warms it, so cached arms absorb both read passes client-side"},
	}
	for i, r := range out {
		t.AddRow(arms[i].name,
			report.F2(r.BulkWrite.Seconds()*1e3),
			report.F2(r.ColdRead.Seconds()*1e3),
			report.F2(r.WarmRead.Seconds()*1e3),
			fmt.Sprint(r.CacheHits), fmt.Sprint(r.Intact),
			report.Pct(r.HostUtil))
	}
	return t, nil
}

func runBlockDeviceCell(mode Mode, clientCache bool, seed int64) (blockDeviceRun, error) {
	cl := NewCluster(ClusterConfig{Mode: mode, Seed: seed})
	defer cl.Shutdown()

	var res blockDeviceRun
	var runErr error
	done := false
	cl.Env.Spawn("rbd-bench", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("rbd-bench", "client"))
		dev, err := rbd.Create(p, cl.Client, "bench-vol", bdVolBytes, rbd.DeviceConfig{
			ObjectBytes: bdObjBytes,
			Cache:       rbd.CacheConfig{Enable: clientCache},
		})
		if err != nil {
			runErr = err
			return
		}

		bulk := make([]byte, bdBulkBytes)
		for i := range bulk {
			bulk[i] = byte(i*2654435761 + i>>8)
		}
		start := p.Now()
		if runErr = dev.WriteAt(p, wire.FromBytes(bulk), 0); runErr != nil {
			return
		}
		res.BulkWrite = p.Now().Sub(start)

		// Two identical passes of random reads inside the loaded region;
		// offsets come from the cell's own seeded source, not sim RNG, so
		// every arm sees the same pattern.
		offs := make([]int64, bdReads)
		r := rand.New(rand.NewSource(seed))
		for i := range offs {
			offs[i] = int64(r.Intn(bdBulkBytes-bdReadBytes)) &^ (bdReadBytes - 1)
		}
		res.Intact = true
		for pass := 0; pass < 2; pass++ {
			start = p.Now()
			for _, off := range offs {
				bl, err := dev.ReadAt(p, off, bdReadBytes)
				if err != nil {
					runErr = err
					return
				}
				want := wire.FromBytes(bulk[off : off+bdReadBytes])
				if bl.CRC32C() != want.CRC32C() {
					res.Intact = false
				}
			}
			if pass == 0 {
				res.ColdRead = p.Now().Sub(start)
			} else {
				res.WarmRead = p.Now().Sub(start)
			}
		}
		res.CacheHits = dev.Stats().CacheHits
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	if !done {
		return res, fmt.Errorf("block device run did not complete")
	}
	res.HostUtil = cl.HostCPUMerged().SingleCoreUtilization()
	return res, nil
}
