package doceph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"doceph/internal/core"
	"doceph/internal/doca"
	"doceph/internal/messenger"
	"doceph/internal/osd"
)

// TestNewRejectsUnbuildableConfig: a configuration no cluster can be built
// from panics in cluster.New with the offending field's name, and nothing
// the program itself builds is caught by the check — the zero Config, every
// cell of the registry's grids and of the goldens, the fault and tracing
// testbeds, the scale-out racks and the benchmark's four clusters all still
// assemble.
func TestNewRejectsUnbuildableConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   ClusterConfig
	}{
		{"StorageNodes", ClusterConfig{StorageNodes: -1}},
		{"Replicas", ClusterConfig{Replicas: -1}},
		{"MinSize", ClusterConfig{MinSize: -1}},
		{"OSD.OpWorkers (-1)", ClusterConfig{OSD: osd.Config{OpWorkers: -1}}},
		{"OSD.OpShards (-1)", ClusterConfig{OSD: osd.Config{OpShards: -1}}},
		{"Messenger.Lanes (-1)", ClusterConfig{Messenger: messenger.Config{Lanes: -1}}},
		{"Messenger.Stream.ChunkBytes (-1)", ClusterConfig{Messenger: messenger.Config{Stream: messenger.StreamConfig{ChunkBytes: -1}}}},
		{"Messenger.Stream.Window (-1)", ClusterConfig{Messenger: messenger.Config{Stream: messenger.StreamConfig{Window: -1}}}},
		{"Bridge.Engine.Queues (-1)", ClusterConfig{Bridge: core.BridgeConfig{Engine: doca.EngineConfig{Queues: -1}}}},
		{"Bridge.Batch.MaxBatchBytes (-1)", ClusterConfig{Bridge: core.BridgeConfig{Batch: core.BatchConfig{MaxBatchBytes: -1}}}},
		{"Bridge.Batch.MaxOpBytes (-1)", ClusterConfig{Bridge: core.BridgeConfig{Batch: core.BatchConfig{MaxOpBytes: -1}}}},
		{"Replicas (3) exceeds StorageNodes (1)", ClusterConfig{StorageNodes: 1, Replicas: 3}},
		{"Replicas (2) exceeds StorageNodes (1)", ClusterConfig{StorageNodes: 1}}, // the default replica count counts too
		{"Replicas (3) exceeds StorageNodes (2)", ClusterConfig{Replicas: 3}},
		{"MinSize (3) exceeds Replicas (2)", ClusterConfig{MinSize: 3}},
		{"MinSize (4) exceeds Replicas (3)", ClusterConfig{StorageNodes: 4, Replicas: 3, MinSize: 4}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.field) {
					t.Fatalf("New(%+v): panic %q does not name %q", tc.cfg, msg, tc.field)
				}
			}()
			NewCluster(tc.cfg).Shutdown()
			t.Fatal("assembled")
		})
	}

	o := QuickOptions()
	cells := slices.Concat(profileCells, versus(PaperSizes, BenchConfig{}), readCells(o.Threads, PaperSizes),
		scaleCells(o.Threads, []int{2, 4, 8}), ablationCells(), smallOpsCells(),
		mqCells([]int{1, 2, 4, 8}, []int64{4 << 10}), streamingCells(o.Threads), readPathCells(), goldenCells)
	built := []ClusterConfig{
		{},
		{MinSize: 2}, {StorageNodes: 3, Replicas: 3, MinSize: 3}, // the limits themselves are fine
		{Mode: DoCeph, Seed: o.Seed, Trace: true},
		selfHealConfig(Baseline, o, true, true), selfHealConfig(DoCeph, o, true, true),
		// A rack of scaleOut32 and of scaleOut128 / the benchmark's
		// scaleout-128osd-zipf (ScaleOutConfig.rackConfig).
		{Mode: DoCeph, StorageNodes: 4, Replicas: 2, PGs: 64}, {Mode: DoCeph, StorageNodes: 8, Replicas: 2, PGs: 64},
	}
	for _, c := range cells {
		cfg := ClusterConfig{Mode: c.mode, LinkBytesPerSec: c.link, Seed: o.Seed}
		if c.mut != nil {
			c.mut(&cfg)
		}
		built = append(built, cfg)
	}
	// benchmark/workloads.go: paper-4M-baseline and -doceph are two of the
	// cells above; these are batch-64K-mq4 and stream-16M-doceph.
	mq4, stream := ClusterConfig{Mode: DoCeph}, ClusterConfig{Mode: DoCeph}
	mq4.Bridge.Batch.Enable, mq4.Bridge.Engine.Queues, mq4.OSD.OpShards, mq4.Messenger.Lanes = true, 4, 4, 4
	stream.Messenger.Stream.Enable = true
	for _, cfg := range append(built, mq4, stream) {
		NewCluster(cfg).Shutdown()
	}
}
