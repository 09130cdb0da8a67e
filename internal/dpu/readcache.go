package dpu

import (
	"container/list"

	"doceph/internal/wire"
)

// ReadCacheConfig tunes the DPU-side object read cache (off by default).
// With the cache on, hot full-object reads are answered from the DPU's
// DDR without crossing PCIe or touching the host CPU — the paper's
// messaging-offload claim extended to the read path.
type ReadCacheConfig struct {
	// Enable turns the cache on. Off by default: the write-only paper
	// goldens must not see a read cache.
	Enable bool
}

const (
	// readCacheCapacityBytes bounds the cached payload volume (64 MiB).
	// Least-recently-used entries are evicted past it; objects larger
	// than the capacity are never cached.
	readCacheCapacityBytes int64 = 64 << 20
	// hitCycles is the fixed DPU CPU cost of a cache hit (lookup +
	// descriptor bookkeeping).
	hitCycles int64 = 2000
	// hitCyclesPerByte is the DPU CPU cost per byte served from cache
	// (the memcpy out of DDR).
	hitCyclesPerByte float64 = 0.25
)

// ReadCacheStats counts cache activity.
type ReadCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Bytes         int64 // currently cached payload volume
	Entries       int64
}

type rcEntry struct {
	coll, obj string
	data      *wire.Bufferlist
	elem      *list.Element
}

// ReadCache is a deterministic LRU cache of whole objects, keyed by
// (collection, object). Entries are populated by full-object reads only —
// a partial read does not reveal the object's full content — and hits are
// served for any byte range with BlueStore's clamp-to-EOF semantics.
// Cached Bufferlists are shared zero-copy (the data plane never mutates
// payload segments), so Lookup returns sublists of the stored content.
// Eviction order depends only on the access sequence, never on map
// iteration, so runs are bit-identical per seed.
type ReadCache struct {
	entries map[string]*rcEntry
	lru     *list.List // front = most recent
	bytes   int64
	stats   ReadCacheStats
}

// NewReadCache returns an empty cache.
func NewReadCache() *ReadCache {
	return &ReadCache{
		entries: make(map[string]*rcEntry),
		lru:     list.New(),
	}
}

// Stats returns a snapshot of the counters.
func (c *ReadCache) Stats() ReadCacheStats {
	s := c.stats
	s.Bytes = c.bytes
	s.Entries = int64(len(c.entries))
	return s
}

func rcKey(coll, obj string) string { return coll + "\x00" + obj }

// Lookup serves a read of (off, length) against the cached full object,
// if present: off past EOF yields an empty list, length 0 or past EOF
// clamps to EOF (matching BlueStore.Read). The second result is false on
// a miss.
func (c *ReadCache) Lookup(coll, obj string, off, length uint64) (*wire.Bufferlist, bool) {
	e, ok := c.entries[rcKey(coll, obj)]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.elem)
	size := uint64(e.data.Length())
	if off >= size {
		return &wire.Bufferlist{}, true
	}
	if length == 0 || off+length > size {
		length = size - off
	}
	return e.data.SubList(int(off), int(length)), true
}

// Insert stores the full content of (coll, obj), evicting LRU entries
// until the capacity holds. Oversized objects are ignored.
func (c *ReadCache) Insert(coll, obj string, data *wire.Bufferlist) {
	if data == nil || int64(data.Length()) > readCacheCapacityBytes {
		return
	}
	key := rcKey(coll, obj)
	if e, ok := c.entries[key]; ok {
		c.bytes += int64(data.Length()) - int64(e.data.Length())
		e.data = data
		c.lru.MoveToFront(e.elem)
	} else {
		e := &rcEntry{coll: coll, obj: obj, data: data}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.bytes += int64(data.Length())
	}
	for c.bytes > readCacheCapacityBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeEntry(back.Value.(*rcEntry))
	}
}

// Invalidate drops the entry for (coll, obj), if cached — called for
// every mutation the proxy ships so cached content never goes stale.
func (c *ReadCache) Invalidate(coll, obj string) {
	if e, ok := c.entries[rcKey(coll, obj)]; ok {
		c.removeEntry(e)
		c.stats.Invalidations++
	}
}

func (c *ReadCache) removeEntry(e *rcEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, rcKey(e.coll, e.obj))
	c.bytes -= int64(e.data.Length())
}

// HitCost returns the DPU CPU cycles a hit of n payload bytes costs.
func (c *ReadCache) HitCost(n int64) int64 {
	return hitCycles + int64(float64(n)*hitCyclesPerByte)
}
