// Package dpu models a BlueField-3-class Data Processing Unit as the paper
// uses it: a SoC with its own ARM cores running an independent OS (a
// separate, slower sim.CPU), onboard DDR for staging buffers, and a PCIe
// attachment to the host through which the DOCA DMA engine and CommChannel
// operate (see package doca).
package dpu

import (
	"fmt"

	"doceph/internal/sim"
)

// Config describes the SoC. Defaults approximate a BlueField-3: 16
// Cortex-A78 cores around 2.0 GHz with a few hundred staging buffers of the
// DMA segment size.
type Config struct {
	Cores   int
	FreqGHz float64
	// StagingBufferBytes is the size of one DMA-capable staging buffer
	// (the hardware's ~2 MB transfer limit).
	StagingBufferBytes int64
	// StagingBuffers is the pool depth shared by all in-flight requests.
	StagingBuffers int
}

// DefaultConfig returns the BlueField-3-like defaults.
func DefaultConfig() Config {
	return Config{
		Cores:              16,
		FreqGHz:            2.0,
		StagingBufferBytes: 2 << 20,
		StagingBuffers:     64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cores == 0 {
		c.Cores = d.Cores
	}
	if c.FreqGHz == 0 {
		c.FreqGHz = d.FreqGHz
	}
	if c.StagingBufferBytes == 0 {
		c.StagingBufferBytes = d.StagingBufferBytes
	}
	if c.StagingBuffers == 0 {
		c.StagingBuffers = d.StagingBuffers
	}
	return c
}

// DPU is one device instance.
type DPU struct {
	Name string
	// CPU is the ARM complex; all DPU-resident Ceph threads execute here.
	CPU *sim.CPU
	// Buffers is the DMA-capable staging memory pool.
	Buffers *BufferPool
	cfg     Config
}

// ctxSwitchCycles is charged whenever an ARM core changes threads.
const ctxSwitchCycles = 2500

// New creates a DPU named name.
func New(env *sim.Env, name string, cfg Config) *DPU {
	cfg = cfg.withDefaults()
	return &DPU{
		Name: name,
		CPU:  sim.NewCPU(env, name+"-arm", cfg.Cores, cfg.FreqGHz, ctxSwitchCycles),
		Buffers: NewBufferPool(env, fmt.Sprintf("%s-staging", name),
			cfg.StagingBuffers, cfg.StagingBufferBytes),
		cfg: cfg,
	}
}

// Config returns the device configuration (post-defaulting).
func (d *DPU) Config() Config { return d.cfg }

// BufferPool is a fixed pool of equally sized DMA-capable buffers. Acquire
// blocks when the pool is drained, which is exactly the backpressure that
// bounds the DMA pipeline depth.
type BufferPool struct {
	name string
	sem  *sim.Semaphore
	size int64
	cap  int
}

// NewBufferPool returns a pool of n buffers of the given size.
func NewBufferPool(env *sim.Env, name string, n int, size int64) *BufferPool {
	return &BufferPool{name: name, sem: sim.NewSemaphore(env, n), size: size, cap: n}
}

// BufferBytes returns the size of each buffer.
func (b *BufferPool) BufferBytes() int64 { return b.size }

// Capacity returns the pool depth.
func (b *BufferPool) Capacity() int { return b.cap }

// Available returns the number of free buffers.
func (b *BufferPool) Available() int { return b.sem.Available() }

// Acquire blocks p until a buffer is free and returns the acquisition
// instant (used to measure staging-wait).
func (b *BufferPool) Acquire(p *sim.Proc) sim.Time {
	b.sem.Acquire(p, 1)
	return p.Now()
}

// Release returns one buffer to the pool.
func (b *BufferPool) Release() { b.sem.Release(1) }
