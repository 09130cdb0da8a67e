package main

import (
	"fmt"
	"time"

	"doceph/internal/bluestore"
	"doceph/internal/cephmsg"
	"doceph/internal/core"
	"doceph/internal/crush"
	"doceph/internal/doca"
	"doceph/internal/dpu"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// isolatedRounds is how many timed rounds each driver runs after one
// discarded warm-up round; the row is their median.
const isolatedRounds = 5

// driver times calls into one layer's public functions on a fixed input
// and returns the host time of one round and how many calls it made.
type driver struct {
	metric string
	round  func() (time.Duration, int)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// runIsolated runs every isolated driver and returns host ns per call.
func runIsolated(rec *spanRecorder) (values, map[string]summary) {
	v, raw := values{}, map[string]summary{}
	for _, d := range drivers() {
		sp := rec.start(0, "isolated "+d.metric)
		d.round()
		xs := make([]float64, isolatedRounds)
		for i := range xs {
			elapsed, calls := d.round()
			xs[i] = float64(elapsed.Nanoseconds()) / float64(calls)
		}
		rec.end(sp)
		raw[d.metric] = summarize(xs)
		v[d.metric] = raw[d.metric].Median
	}
	return v, raw
}

// simRound runs body as one process in a fresh kernel and times the kernel
// draining it; setup work done before the returned closure is untimed.
func simRound(calls int, build func(env *sim.Env) func(p *sim.Proc)) (time.Duration, int) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	body := build(env)
	done := false
	env.Spawn("driver", func(p *sim.Proc) {
		body(p)
		done = true
	})
	start := time.Now()
	for !done {
		if err := env.RunUntil(env.Now().Add(3600 * sim.Second)); err != nil {
			panic(fmt.Sprintf("benchmark: isolated driver: %v", err))
		}
	}
	return time.Since(start), calls
}

func pattern(n int) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return wire.FromBytes(b)
}

func drivers() []driver {
	return []driver{
		{"sim.event_ns", func() (time.Duration, int) {
			const n = 200_000
			return simRound(n, func(*sim.Env) func(*sim.Proc) {
				return func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						p.Wait(sim.Microsecond)
					}
				}
			})
		}},
		{"sim.cpu_exec_ns", func() (time.Duration, int) {
			const n = 200_000
			return simRound(n, func(env *sim.Env) func(*sim.Proc) {
				cpu := sim.NewCPU(env, "c", 4, 3.0, 2000)
				th := sim.NewThread("w", "work")
				return func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						cpu.Exec(p, th, 1000)
					}
				}
			})
		}},
		{"sim.group_window_ns", groupWindowRound},
		{"wire.encode_ns", func() (time.Duration, int) {
			const n = 200_000
			start := time.Now()
			for i := 0; i < n; i++ {
				sink = encodeHeader(uint64(i))
			}
			return time.Since(start), n
		}},
		{"wire.decode_ns", func() (time.Duration, int) {
			const n = 200_000
			hdr := encodeHeader(7)
			start := time.Now()
			for i := 0; i < n; i++ {
				d := wire.NewDecoder(hdr)
				sink = d.U64() + uint64(d.U32()) + uint64(len(d.String()))
				if !d.Bool() || d.Err() != nil {
					panic("benchmark: wire decode driver: bad header")
				}
			}
			return time.Since(start), n
		}},
		{"wire.crc32c_ns_per_mib", func() (time.Duration, int) {
			const n, mib = 50, 4
			bl := pattern(mib << 20)
			start := time.Now()
			for i := 0; i < n; i++ {
				sink = bl.CRC32C()
			}
			return time.Since(start), n * mib
		}},
		{"cephmsg.encode_osdop_ns", func() (time.Duration, int) {
			const n = 100_000
			op := smallOp()
			start := time.Now()
			for i := 0; i < n; i++ {
				sink = cephmsg.Encode(op)
			}
			return time.Since(start), n
		}},
		{"cephmsg.decode_osdop_ns", func() (time.Duration, int) {
			const n = 100_000
			bl := cephmsg.Encode(smallOp())
			start := time.Now()
			for i := 0; i < n; i++ {
				m, err := cephmsg.Decode(bl)
				if err != nil {
					panic(fmt.Sprintf("benchmark: cephmsg decode driver: %v", err))
				}
				sink = m
			}
			return time.Since(start), n
		}},
		{"cephmsg.assembler_ns_per_chunk", assemblerRound},
		{"messenger.roundtrip_ns", roundtripRound},
		{"core.txn_ns", func() (time.Duration, int) {
			const n = 100
			return simRound(n, func(env *sim.Env) func(*sim.Proc) {
				hostCPU := sim.NewCPU(env, "host", 48, 3.6, 2500)
				disk := sim.NewDisk(env, "ssd", 520e6, 550e6, 30*sim.Microsecond)
				store := bluestore.New(env, "bs", hostCPU, disk, bluestore.Config{})
				bridge := core.NewBridge(env, dpu.New(env, "bf3", dpu.Config{}), hostCPU, store, core.BridgeConfig{})
				return storeWrites(bridge.Proxy, n, 4<<20)
			})
		}},
		{"doca.transfer_ns", transferRound},
		{"bluestore.txn_ns_4k", func() (time.Duration, int) { return bluestoreRound(5_000, 4<<10) }},
		{"bluestore.txn_ns_4m", func() (time.Duration, int) { return bluestoreRound(200, 4<<20) }},
		{"crush.select_ns", func() (time.Duration, int) {
			const n = 100_000
			m := crush.BuildRacks(16, 8, 1, 1.0)
			start := time.Now()
			for i := 0; i < n; i++ {
				sink = m.Select(uint32(i), 3)
			}
			return time.Since(start), n
		}},
	}
}

// encodeHeader is the small fixed header the wire rows encode and decode.
func encodeHeader(tid uint64) []byte {
	e := wire.NewEncoder(64)
	e.U64(tid)
	e.U32(7)
	e.String("pg.17/object-name")
	e.Bool(true)
	return e.Bytes()
}

func smallOp() *cephmsg.MOSDOp {
	return &cephmsg.MOSDOp{Tid: 1, Epoch: 3, Src: "client.0", Pool: "rbd", Object: "bench_w3_117",
		Op: cephmsg.OpWrite, Length: 4 << 10, Data: pattern(4 << 10)}
}

// assemblerRound pushes 8-chunk 16 MiB streams through the pure stream
// assembler, the way the streaming workload's receivers do.
func assemblerRound() (time.Duration, int) {
	const streams, chunks, chunkBytes = 20_000, 8, 2 << 20
	data := pattern(chunkBytes)
	asm := cephmsg.NewAssembler()
	check := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("benchmark: assembler driver: %v", err))
		}
	}
	start := time.Now()
	for s := uint64(0); s < streams; s++ {
		inner := &cephmsg.MOSDOp{Tid: s, Object: "o", Op: cephmsg.OpWrite, Length: chunks * chunkBytes}
		check(asm.Open(&cephmsg.MStreamOpen{StreamID: s, Total: chunks * chunkBytes,
			ChunkBytes: chunkBytes, Window: 4, Inner: inner}, false))
		for c := uint32(0); c < chunks; c++ {
			_, err := asm.Chunk(&cephmsg.MStreamChunk{StreamID: s, Seq: c, Data: data})
			check(err)
			check(asm.Credit(s, 1))
		}
		m, err := asm.End(&cephmsg.MStreamEnd{StreamID: s, Chunks: chunks})
		check(err)
		sink = m
	}
	return time.Since(start), streams * chunks
}

// roundtripRound ping-pongs a 4 KiB op and its reply between two
// messengers on a two-node fabric.
func roundtripRound() (time.Duration, int) {
	const n = 10_000
	return simRound(n, func(env *sim.Env) func(*sim.Proc) {
		fabric := sim.NewFabric(env, "eth", 5*sim.Microsecond)
		fabric.AddNode("nodeA", 12.5e9)
		fabric.AddNode("nodeB", 12.5e9)
		reg := messenger.NewRegistry()
		a := messenger.New(env, reg, fabric, sim.NewCPU(env, "cpuA", 8, 3.0, 2000), "ent.a", "nodeA", messenger.Config{})
		b := messenger.New(env, reg, fabric, sim.NewCPU(env, "cpuB", 8, 3.0, 2000), "ent.b", "nodeB", messenger.Config{})
		op := smallOp()
		replies := sim.NewQueue[uint64](env)
		b.SetDispatcher(func(_ *sim.Proc, src string, m cephmsg.Message) {
			b.Send(src, &cephmsg.MOSDOpReply{Tid: m.(*cephmsg.MOSDOp).Tid, Object: op.Object, Op: op.Op})
		})
		a.SetDispatcher(func(_ *sim.Proc, _ string, m cephmsg.Message) {
			replies.Push(m.(*cephmsg.MOSDOpReply).Tid)
		})
		return func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.Send("ent.b", op)
				replies.Pop(p)
			}
		}
	})
}

// transferRound submits 2 MiB transfers to one DMA engine, one at a time.
func transferRound() (time.Duration, int) {
	const n = 5_000
	return simRound(n, func(env *sim.Env) func(*sim.Proc) {
		dpuCPU := sim.NewCPU(env, "arm", 16, 2.0, 2000)
		hostCPU := sim.NewCPU(env, "host", 48, 3.6, 2500)
		cc := doca.NewCommChannel(env, dpuCPU, hostCPU, sim.NewThread("cc", "rpc-server"), doca.CommChannelConfig{})
		eng := doca.NewEngine(env, "up", doca.EngineConfig{})
		env.SpawnDaemon("completions", func(p *sim.Proc) {
			for {
				eng.Completions().Pop(p)
			}
		})
		src, dst := doca.NewMemRegion("dpu", 64<<20), doca.NewMemRegion("host", 64<<20)
		data := pattern(2 << 20)
		return func(p *sim.Proc) {
			p.SetThread(sim.NewThread("proxy", "proxy"))
			cc.Negotiate(p, src)
			cc.Negotiate(p, dst)
			for i := 0; i < n; i++ {
				t := &doca.Transfer{ReqID: uint64(i), TotalSegs: 1, Bytes: 2 << 20, Data: data, Src: src, Dst: dst}
				if err := eng.Submit(p, dpuCPU, t); err != nil {
					panic(fmt.Sprintf("benchmark: doca driver: %v", err))
				}
				t.Done.Wait(p)
			}
		}
	})
}

func bluestoreRound(n int, size int) (time.Duration, int) {
	return simRound(n, func(env *sim.Env) func(*sim.Proc) {
		cpu := sim.NewCPU(env, "host", 48, 3.6, 2500)
		disk := sim.NewDisk(env, "ssd", 520e6, 550e6, 30*sim.Microsecond)
		return storeWrites(bluestore.New(env, "bs", cpu, disk, bluestore.Config{}), n, size)
	})
}

// storeWrites returns a process body that commits n size-byte object
// writes to st, one at a time.
func storeWrites(st objstore.Store, n, size int) func(*sim.Proc) {
	data := pattern(size)
	return func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tp_osd_tp", "tp_osd_tp"))
		mk := st.QueueTransaction(p, (&objstore.Transaction{}).MkColl("pg.0"))
		mk.Done.Wait(p)
		for i := 0; i < n; i++ {
			txn := (&objstore.Transaction{}).Write("pg.0", fmt.Sprintf("obj%d", i), 0, data)
			res := st.QueueTransaction(p, txn)
			res.Done.Wait(p)
			if res.Err != nil {
				panic(fmt.Sprintf("benchmark: store driver: %v", res.Err))
			}
		}
	}
}

// groupWindowRound runs the partitioned kernel over 17 partitions that
// each hold one idle ticker, on 2 workers: nearly all the host time is the
// barrier (horizon computation, window dispatch, worker wake-up).
func groupWindowRound() (time.Duration, int) {
	const parts, ticks = 17, 2_000
	lookahead := 1655 * sim.Microsecond
	g := sim.NewGroup()
	envs := make([]*sim.Env, parts)
	for i := range envs {
		envs[i] = sim.NewEnv(int64(i + 1))
		g.Add(fmt.Sprintf("p%d", i), envs[i])
		envs[i].SpawnDaemon("ticker", func(p *sim.Proc) {
			for {
				p.Wait(lookahead)
			}
		})
	}
	for i := 1; i < parts; i++ {
		g.Connect(fmt.Sprintf("up%d", i), sim.PartitionID(i), 0, lookahead)
		g.Connect(fmt.Sprintf("down%d", i), 0, sim.PartitionID(i), lookahead)
	}
	start := time.Now()
	if err := g.Run(2, sim.Time(0).Add(ticks*lookahead)); err != nil {
		panic(fmt.Sprintf("benchmark: group driver: %v", err))
	}
	elapsed := time.Since(start)
	for _, e := range envs {
		e.Shutdown()
	}
	return elapsed, int(g.Stats().Windows)
}
