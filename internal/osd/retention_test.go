//go:build go1.24

package osd

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/rados"
	"doceph/internal/sim"
)

// TestStreamRecordsFreedAfterAck: once a streamed write is acked, the records
// of its two streams — the client's pump and the primary's forward, each an
// OutStream with its frames, and the primary's and the replica's ingest, each
// a streamIngest with its chunk table — are garbage, while the object's
// extents on both stores keep the payload their chunk views point into. The
// chunk tables point at the chunk views, so a record that something kept — an
// OSD's or a messenger's map entry that outlived its stream — would keep them
// too.
//
// It watches with runtime.AddCleanup: a stream's records and the store's
// transaction contexts point at each other (the Result, the transaction).
func TestStreamRecordsFreedAfterAck(t *testing.T) {
	cfg := messenger.Config{}
	cfg.Stream.Enable = true
	tc := newTestClusterMsgr(t, 2, 2, 0, cfg, Config{})
	freed := make(chan string, 4)
	for _, o := range tc.osds {
		o.msgr.SetStreamSink(watchedSink{o: o, freed: freed})
	}
	payloadFreed := make(chan struct{}, 1)
	acked := false
	tc.env.Spawn("writer", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tester", "client"))
		if err := writeWatched(p, tc.client, payloadFreed); err != nil {
			t.Error(err)
		}
		acked = true
	})
	for step := 0; !acked; step++ {
		if step == 100_000 {
			t.Fatal("the streamed write was never acked")
		}
		if err := tc.env.RunUntil(tc.env.Now().Add(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{"client.0's OutStream": true, "osd.0's OutStream": true,
		"osd.1's OutStream": true, "osd.0's streamIngest": true, "osd.1's streamIngest": true}
	got := map[string]bool{}
	for i := 0; len(got) < 4; i++ {
		if i == 50 {
			t.Fatalf("after the ack only %v of the stream records were freed", got)
		}
		runtime.GC()
		select {
		case what := <-freed:
			if !want[what] || got[what] {
				t.Fatalf("freed %q, want each of %v once", what, want)
			}
			got[what] = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	runtime.GC()
	select {
	case <-payloadFreed:
		t.Fatal("the payload was freed while the object's extents point into it")
	case <-time.After(20 * time.Millisecond):
	}
	read := false
	tc.env.Spawn("reader", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("reader", "client"))
		m := tc.client.Map()
		pg := m.PGForObject(watchedObject)
		for _, id := range m.ActingSet(pg) {
			bl, err := tc.stores[id].Read(p, pgColl(pg), watchedObject, 0, 0)
			if err != nil || bl.CRC32C() != payload(16<<20, 7).CRC32C() {
				t.Errorf("osd.%d: read back err=%v", id, err)
			}
		}
		read = true
	})
	if err := tc.env.RunUntil(tc.env.Now().Add(sim.Second)); err != nil || !read {
		t.Fatalf("read-back did not finish: %v", err)
	}
	tc.env.Shutdown()
}

const watchedObject = "watched"

// writeWatched writes a fresh 16 MiB payload to watchedObject, its byte array
// reporting on freed once it is unreachable, so that the caller's stack holds
// nothing of the write.
//
//go:noinline
func writeWatched(p *sim.Proc, c *rados.Client, freed chan struct{}) error {
	data := payload(16<<20, 7)
	runtime.AddCleanup(&data.FirstSegment()[0], func(ch chan struct{}) { ch <- struct{}{} }, freed)
	return c.Write(p, watchedObject, data)
}

// watchedSink is an OSD's sink that watches each stream's records: the
// sender's OutStream, which the open frame lives in, and the OSD's own
// streamIngest, which the InStream lives in.
type watchedSink struct {
	o     *OSD
	freed chan string
}

func (s watchedSink) OpenStream(src string, open *cephmsg.MStreamOpen) *messenger.InStream {
	report := func(what string) func(chan string) { return func(ch chan string) { ch <- what } }
	runtime.AddCleanup(open, report(src+"'s OutStream"), s.freed)
	in := s.o.OpenStream(src, open)
	runtime.AddCleanup(in, report(fmt.Sprintf("%s's streamIngest", s.o.name)), s.freed)
	return in
}
