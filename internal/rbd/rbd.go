// Package rbd assembles an RBD-style block device on the striper: a
// fixed-size virtual disk striped across RADOS objects (librbd's layout,
// via internal/striper) fronted by an optional client-side write-through
// page cache (librbd's rbd_cache with writethrough semantics: every write
// reaches the cluster before completing, so durability equals the
// uncached device, while hot reads are absorbed client-side). This is the
// hyper-converged block workload shape Ra's all-flash Ceph study
// measures; ExampleCreate walks through it.
package rbd

import (
	"container/list"

	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/striper"
	"doceph/internal/wire"
)

// Errors surfaced by the device (striper errors pass through).
var (
	ErrExists      = striper.ErrExists
	ErrNotFound    = striper.ErrNotFound
	ErrOutOfBounds = striper.ErrOutOfBounds
)

// CacheConfig tunes the client-side page cache (off by default).
type CacheConfig struct {
	// Enable turns the write-through cache on.
	Enable bool
	// CapacityBytes bounds cached page volume (default 32 MiB).
	CapacityBytes int64
	// PageBytes is the cache granularity (default 64 KiB). Only ranges
	// covering whole pages are cached, so a device whose size is not a
	// page multiple simply never caches its tail.
	PageBytes int64
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 32 << 20
	}
	if c.PageBytes == 0 {
		c.PageBytes = 64 << 10
	}
	return c
}

// DeviceConfig describes a block device.
type DeviceConfig struct {
	// ObjectBytes is the stripe object size (striper.DefaultObjectBytes
	// if zero).
	ObjectBytes int64
	// Cache configures the client-side write-through cache.
	Cache CacheConfig
}

// Stats counts device activity.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	// CacheHits counts reads served entirely from cached pages;
	// CacheMisses counts reads that went to the cluster.
	CacheHits   int64
	CacheMisses int64
	// CachedBytes is the current cached page volume.
	CachedBytes int64
}

// Device is an open block device.
type Device struct {
	img   *striper.Image
	cfg   DeviceConfig
	cache *pageCache
	stats Stats
}

// Create makes a new block device image of sizeBytes and returns it open.
func Create(p *sim.Proc, client *rados.Client, name string, sizeBytes int64, cfg DeviceConfig) (*Device, error) {
	img, err := striper.Create(p, client, name, sizeBytes, cfg.ObjectBytes)
	if err != nil {
		return nil, err
	}
	return newDevice(img, cfg), nil
}

// Open opens an existing block device image.
func Open(p *sim.Proc, client *rados.Client, name string, cfg DeviceConfig) (*Device, error) {
	img, err := striper.Open(p, client, name)
	if err != nil {
		return nil, err
	}
	return newDevice(img, cfg), nil
}

// Remove deletes the backing image.
func Remove(p *sim.Proc, client *rados.Client, name string) error {
	return striper.Remove(p, client, name)
}

func newDevice(img *striper.Image, cfg DeviceConfig) *Device {
	d := &Device{img: img, cfg: cfg}
	if cfg.Cache.Enable {
		d.cache = newPageCache(cfg.Cache.withDefaults())
	}
	return d
}

// Name returns the image name.
func (d *Device) Name() string { return d.img.Name() }

// Size returns the device size in bytes.
func (d *Device) Size() int64 { return d.img.Size() }

// ObjectBytes returns the stripe object size.
func (d *Device) ObjectBytes() int64 { return d.img.ObjectBytes() }

// Image exposes the backing striper image (placement inspection).
func (d *Device) Image() *striper.Image { return d.img }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	s := d.stats
	if d.cache != nil {
		s.CachedBytes = d.cache.bytes
	}
	return s
}

// WriteAt stores data at logical offset off. Write-through: the cluster
// write completes before the cache is updated, so a completed write is
// always durable; the cache then absorbs re-reads of the written range.
func (d *Device) WriteAt(p *sim.Proc, data *wire.Bufferlist, off int64) error {
	if err := d.img.WriteAt(p, data, off); err != nil {
		// Conservative: the cluster may hold any prefix of the write, so
		// cached pages under it can no longer be trusted.
		if d.cache != nil {
			d.cache.invalidateRange(off, int64(data.Length()))
		}
		return err
	}
	d.stats.BytesWritten += int64(data.Length())
	if d.cache != nil {
		d.cache.update(off, data.Bytes())
	}
	return nil
}

// ReadAt returns length bytes at logical offset off; unwritten regions
// read as zeros. With the cache on, a read fully covered by cached pages
// never reaches the cluster.
func (d *Device) ReadAt(p *sim.Proc, off, length int64) (*wire.Bufferlist, error) {
	if off < 0 || length < 0 || off+length > d.img.Size() {
		return nil, ErrOutOfBounds
	}
	if length == 0 {
		return &wire.Bufferlist{}, nil
	}
	if d.cache != nil {
		if b, ok := d.cache.read(off, length); ok {
			d.stats.CacheHits++
			d.stats.BytesRead += length
			return wire.FromBytes(b), nil
		}
		d.stats.CacheMisses++
	}
	bl, err := d.img.ReadAt(p, off, length)
	if err != nil {
		return nil, err
	}
	d.stats.BytesRead += int64(bl.Length())
	if d.cache != nil {
		d.cache.populate(off, bl.Bytes())
	}
	return bl, nil
}

// pageCache is a deterministic LRU of fixed-size pages keyed by page
// index. Every cached page is exactly PageBytes long by construction
// (only fully covered pages are stored), and pages own their storage
// (copies in and out), so cached content is immune to later buffer
// reuse. Eviction follows access order only, never map iteration,
// keeping runs bit-identical.
type pageCache struct {
	cfg   CacheConfig
	pages map[int64]*cachePage
	lru   *list.List // front = most recent
	bytes int64
}

type cachePage struct {
	idx  int64
	data []byte
	elem *list.Element
}

func newPageCache(cfg CacheConfig) *pageCache {
	return &pageCache{cfg: cfg, pages: make(map[int64]*cachePage), lru: list.New()}
}

// read assembles [off, off+length) from cached pages; false if any byte
// of the range is not cached. Coverage is verified before recency is
// touched, so a miss does not perturb the eviction order.
func (c *pageCache) read(off, length int64) ([]byte, bool) {
	pb := c.cfg.PageBytes
	first, last := off/pb, (off+length-1)/pb
	for i := first; i <= last; i++ {
		if _, ok := c.pages[i]; !ok {
			return nil, false
		}
	}
	out := make([]byte, length)
	for i := first; i <= last; i++ {
		pg := c.pages[i]
		c.lru.MoveToFront(pg.elem)
		lo, hi := maxI64(off, i*pb), minI64(off+length, (i+1)*pb)
		copy(out[lo-off:hi-off], pg.data[lo-i*pb:hi-i*pb])
	}
	return out, true
}

// populate stores the pages fully covered by data read from the cluster
// at logical offset off (partial head/tail pages are skipped — their
// remaining bytes are unknown).
func (c *pageCache) populate(off int64, data []byte) {
	pb := c.cfg.PageBytes
	end := off + int64(len(data))
	for i := off / pb; i*pb < end; i++ {
		lo, hi := i*pb, (i+1)*pb
		if lo < off || hi > end {
			continue
		}
		c.store(i, data[lo-off:hi-off])
	}
}

// update applies a completed write at logical offset off: fully covered
// pages are (re)stored, partially covered pages are patched in place if
// present and left uncached otherwise (their uncovered bytes are
// unknown).
func (c *pageCache) update(off int64, data []byte) {
	pb := c.cfg.PageBytes
	end := off + int64(len(data))
	for i := off / pb; i*pb < end; i++ {
		lo, hi := maxI64(off, i*pb), minI64(end, (i+1)*pb)
		if lo == i*pb && hi == (i+1)*pb {
			c.store(i, data[lo-off:hi-off])
			continue
		}
		pg, ok := c.pages[i]
		if !ok {
			continue
		}
		copy(pg.data[lo-i*pb:hi-i*pb], data[lo-off:hi-off])
		c.lru.MoveToFront(pg.elem)
	}
}

func (c *pageCache) invalidateRange(off, length int64) {
	if length <= 0 {
		return
	}
	pb := c.cfg.PageBytes
	for i := off / pb; i*pb < off+length; i++ {
		if pg, ok := c.pages[i]; ok {
			c.drop(pg)
		}
	}
}

func (c *pageCache) store(idx int64, data []byte) {
	if pg, ok := c.pages[idx]; ok {
		copy(pg.data, data)
		c.lru.MoveToFront(pg.elem)
	} else {
		pg := &cachePage{idx: idx, data: append([]byte(nil), data...)}
		pg.elem = c.lru.PushFront(pg)
		c.pages[idx] = pg
		c.bytes += int64(len(data))
	}
	for c.bytes > c.cfg.CapacityBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		c.drop(back.Value.(*cachePage))
	}
}

func (c *pageCache) drop(pg *cachePage) {
	c.lru.Remove(pg.elem)
	delete(c.pages, pg.idx)
	c.bytes -= int64(len(pg.data))
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
