package dpu

import (
	"testing"

	"doceph/internal/sim"
)

func TestDefaultsApplied(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(env, "bf3", Config{})
	cfg := d.Config()
	if cfg.Cores != 16 || cfg.FreqGHz != 2.0 {
		t.Fatalf("cfg=%+v", cfg)
	}
	if d.CPU.Cores() != 16 {
		t.Fatalf("cpu cores=%d", d.CPU.Cores())
	}
	if d.Buffers.BufferBytes() != 2<<20 || d.Buffers.Capacity() != 64 {
		t.Fatalf("buffers=%d x %d", d.Buffers.Capacity(), d.Buffers.BufferBytes())
	}
}

func TestConfigOverrides(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(env, "bf3", Config{Cores: 8, FreqGHz: 2.5, StagingBuffers: 4, StagingBufferBytes: 1 << 20})
	if d.CPU.Cores() != 8 || d.Buffers.Capacity() != 4 || d.Buffers.BufferBytes() != 1<<20 {
		t.Fatalf("cfg not applied: %+v", d.Config())
	}
}

// holder takes a buffer, notes when, and gives it back a millisecond later.
type holder struct {
	env  *sim.Env
	pool *BufferPool
	at   *[]sim.Time
	held bool
}

func (h *holder) Run() {
	if h.held {
		h.pool.Release()
		return
	}
	h.held = true
	*h.at = append(*h.at, h.env.Now())
	h.env.Delay(sim.Millisecond, h)
}

func TestBufferPoolBackpressure(t *testing.T) {
	env := sim.NewEnv(1)
	pool := NewBufferPool(env, "p", 2, 1<<20)
	if pool.Available() != 2 {
		t.Fatalf("avail=%d", pool.Available())
	}
	var acquiredAt []sim.Time
	for i := 0; i < 3; i++ {
		h := &holder{env: env, pool: pool, at: &acquiredAt}
		if !pool.AcquireThen(h) {
			h.Run()
		}
	}
	if err := env.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(acquiredAt) != 3 {
		t.Fatalf("acquisitions=%d", len(acquiredAt))
	}
	// First two immediate, third waits for a release.
	if acquiredAt[0] != 0 || acquiredAt[1] != 0 {
		t.Fatalf("early acquires at %v", acquiredAt[:2])
	}
	if acquiredAt[2] != sim.Time(sim.Millisecond) {
		t.Fatalf("third acquire at %v, want 1ms", acquiredAt[2])
	}
	if pool.Available() != 2 {
		t.Fatalf("avail=%d after all releases", pool.Available())
	}
}
