package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// The recording host is a small shared VM whose speed drifts by 20-50% over
// minutes with its neighbours' load: every process on it slows together.
// referenceKernel times a fixed piece of plain Go, with no repository code
// in it so that no change to the repository can move it, right after each
// timed repetition. Host-time rows are then reported on a host of nominal
// speed: raw median x referenceNominal / median reference time. Over twenty
// 10 s runs in a noisy half-hour this cut the run-to-run spread of
// wall_us_per_op from 19%, 19% and 11% to 8%, 5% and 7% (README.md).
//
// The kernel leans on what the simulator leans on: goroutine hand-off (the
// kernel switches simulated processes that way), allocation of small
// pointer-linked objects, and dependent loads that miss the cache.
const (
	referenceNominal = 60 * time.Millisecond

	refHandoffs = 30_000
	refAllocs   = 300_000
	refLoads    = 200_000
	refTable    = 32 << 20 // bytes; 4-byte slots
)

type refNode struct {
	next *refNode
	pad  [6]uint64
}

// refChase is the table the dependent loads walk. It lives outside the Go
// heap so that it is not counted in heap_live_mb.
var refChase []byte

func referenceKernel() (time.Duration, error) {
	if refChase == nil {
		var err error
		refChase, err = syscall.Mmap(-1, 0, refTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0, fmt.Errorf("reference kernel: map %d MiB: %w", refTable>>20, err)
		}
		// slot i points at slot (i*2654435761 + 12345) mod slots: a fixed
		// scatter with no locality for the prefetcher to find.
		const slots = refTable / 4
		for i := uint64(0); i < slots; i++ {
			binary.LittleEndian.PutUint32(refChase[4*i:], uint32((i*2654435761+12345)%slots))
		}
	}
	start := time.Now()

	ping, pong := make(chan int), make(chan int)
	go func() {
		for x := range ping {
			pong <- x + 1
		}
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- i
		<-pong
	}
	close(ping)

	var head *refNode
	for i := 0; i < refAllocs; i++ {
		head = &refNode{next: head}
		if i%4096 == 0 {
			head = nil // keep at most 4096 nodes reachable
		}
	}
	sink = head

	x := uint32(1)
	for i := 0; i < refLoads; i++ {
		x = binary.LittleEndian.Uint32(refChase[4*x:])
	}
	sink = x
	return time.Since(start), nil
}
