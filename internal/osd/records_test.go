package osd

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/rados"
	"doceph/internal/sim"
)

// TestOpRecordsRecycled: the records an OSD sends a reply from — a whole
// mutation, a sub-op's repApply, a read's or a stat's reply — come from the
// partition's free lists and go back, zeroed, once the receiving messenger
// has dispatched the reply. One client writing, reading, stating and deleting
// one op at a time therefore makes one of each. A mutation one of whose
// sub-ops the watchdog resent, or whose ack was abandoned (the watchdog's
// abort, a map change), is abandoned as timed out: the replica may still read
// the sub-op inside it.
func TestOpRecordsRecycled(t *testing.T) {
	for _, c := range []struct {
		name string
		// body runs after the steady ops; strays is how many mutations it
		// abandons.
		body   func(t *testing.T, tc *testCluster, rc *rawClient, p *sim.Proc) []heldObject
		strays int
	}{
		{"steady", nil, 0},
		{"watchdog", watchdogWrites, 2}, // the resent write and the aborted one
		{"map-change", mapChangeWrites, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestClusterCfg(t, 2, 2, Config{})
			rc := newRawClient(tc)
			tc.run(t, func(p *sim.Proc) {
				steadyOps(t, tc, p)
				if c.body != nil {
					c.body(t, tc, rc, p)
				}
			})
			o := tc.osds[0]
			if o.muts != tc.osds[1].muts {
				t.Fatal("the OSDs of one partition have free lists of their own")
			}
			if out := tc.env.RecordsOut(); out != nil {
				t.Errorf("records out: %v", out)
			}
			checkRecords(t, "mutations", o.muts, c.strays)
			checkRecords(t, "replica applies", o.applies, 0)
			checkRecords(t, "op replies", o.replies, 0)
		})
	}
}

// steadyOps writes, reads back and stats objects one op at a time through the
// rig's client, then reads, stats and deletes a missing one and deletes one
// it wrote.
func steadyOps(t *testing.T, tc *testCluster, p *sim.Proc) {
	t.Helper()
	for i := 0; i < 8; i++ {
		obj, data := fmt.Sprint("steady-", i), payload(4096+i, byte(i))
		if err := tc.client.Write(p, obj, data); err != nil {
			t.Fatalf("write %s: %v", obj, err)
		}
		if got, err := tc.client.Read(p, obj, 0, 0); err != nil || !got.Equal(data) {
			t.Fatalf("read %s: err=%v, data equal: %v", obj, err, err == nil && got.Equal(data))
		}
		if size, _, err := tc.client.Stat(p, obj); err != nil || size != uint64(data.Length()) {
			t.Fatalf("stat %s: size=%d err=%v", obj, size, err)
		}
	}
	if _, err := tc.client.Read(p, "missing", 0, 0); !errors.Is(err, rados.ErrNotFound) {
		t.Fatalf("read of a missing object: %v", err)
	}
	if _, _, err := tc.client.Stat(p, "missing"); !errors.Is(err, rados.ErrNotFound) {
		t.Fatalf("stat of a missing object: %v", err)
	}
	if err := tc.client.Delete(p, "missing"); !errors.Is(err, rados.ErrNotFound) {
		t.Fatalf("delete of a missing object: %v", err)
	}
	if err := tc.client.Delete(p, "steady-0"); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// checkRecords fails unless l made one record more than the strays, lists
// all but the strays, which it abandoned as timed out, and every listed one is
// the zero value. It takes them off the list to look.
func checkRecords[T any](t *testing.T, what string, l *sim.FreeList[T], strays int) {
	t.Helper()
	made, listed, abandoned := l.Made(), l.Listed(), l.Abandoned(sim.TimedOut)
	t.Logf("%s: %d made, %d listed, %d abandoned", what, made, listed, abandoned)
	if made != 1+strays || listed != made-strays || abandoned != strays {
		t.Errorf("%s: %d listed of %d made, %d abandoned; want 1 of %d, %d abandoned", what, listed, made, abandoned,
			1+strays, strays)
	}
	for range listed {
		if r := l.Get(); !reflect.ValueOf(*r).IsZero() {
			t.Errorf("%s: a listed record holds %+v", what, *r)
		}
	}
}
