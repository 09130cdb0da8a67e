// Package crush implements a CRUSH-style deterministic placement function
// (Weil et al., SC'06): a weighted hierarchy of buckets selected with the
// straw2 algorithm, giving stable, reproducible replica placement with
// minimal data movement on topology changes. It is the placement substrate
// for the mini-RADOS cluster in this repository.
package crush

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// ItemID identifies a device (>= 0, an OSD id) or a bucket (< 0).
type ItemID int32

// InvalidItem is returned when selection fails.
const InvalidItem = ItemID(math.MinInt32)

// Device is a leaf placement target (an OSD).
type Device struct {
	ID ItemID
	// Weight is the relative capacity; devices with weight <= 0 receive no
	// data.
	Weight float64
	// Out marks the device as excluded from placement (e.g. failed and
	// marked out by the monitor).
	Out bool
}

// BucketAlg selects the algorithm a bucket uses to choose among its items
// (Weil et al. §3.4; straw2 is modern Ceph's default).
type BucketAlg uint8

// Bucket algorithms.
const (
	// AlgStraw2: probability exactly proportional to weight, optimal
	// stability under weight changes. The default.
	AlgStraw2 BucketAlg = iota
	// AlgUniform: O(1) selection for identically weighted items; cheap
	// but any membership change reshuffles placements.
	AlgUniform
	// AlgList: O(n) head-to-tail walk; optimal when items are only ever
	// appended.
	AlgList
)

func (a BucketAlg) String() string {
	switch a {
	case AlgUniform:
		return "uniform"
	case AlgList:
		return "list"
	default:
		return "straw2"
	}
}

// Bucket is an interior node of the hierarchy grouping items of the next
// level down (e.g. a host grouping OSDs, a root grouping hosts).
type Bucket struct {
	ID    ItemID
	Name  string
	Type  string
	Alg   BucketAlg
	Items []ItemID
}

// Map is a CRUSH hierarchy: a single root bucket, interior buckets and leaf
// devices. Build one with NewMap + AddBucket/AddDevice, or use BuildUniform.
type Map struct {
	root    ItemID
	buckets map[ItemID]*Bucket
	devices map[ItemID]*Device
	// ChooseRetries bounds collision retries per replica slot.
	ChooseRetries int
}

// NewMap returns an empty map.
func NewMap() *Map {
	return &Map{
		root:          InvalidItem,
		buckets:       make(map[ItemID]*Bucket),
		devices:       make(map[ItemID]*Device),
		ChooseRetries: 50,
	}
}

// AddBucket inserts a bucket. The first bucket of type "root" becomes the
// selection root.
func (m *Map) AddBucket(b *Bucket) error {
	if b.ID >= 0 {
		return fmt.Errorf("crush: bucket id %d must be negative", b.ID)
	}
	if _, dup := m.buckets[b.ID]; dup {
		return fmt.Errorf("crush: duplicate bucket id %d", b.ID)
	}
	m.buckets[b.ID] = b
	if b.Type == "root" && m.root == InvalidItem {
		m.root = b.ID
	}
	return nil
}

// AddDevice inserts a leaf device.
func (m *Map) AddDevice(d *Device) error {
	if d.ID < 0 {
		return fmt.Errorf("crush: device id %d must be non-negative", d.ID)
	}
	if _, dup := m.devices[d.ID]; dup {
		return fmt.Errorf("crush: duplicate device id %d", d.ID)
	}
	m.devices[d.ID] = d
	return nil
}

// Device returns the device with the given id, or nil.
func (m *Map) Device(id ItemID) *Device { return m.devices[id] }

// Devices returns all device ids in ascending order.
func (m *Map) Devices() []ItemID {
	ids := make([]ItemID, 0, len(m.devices))
	for id := range m.devices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SetDeviceWeight adjusts a device's weight (0 drains it).
func (m *Map) SetDeviceWeight(id ItemID, w float64) error {
	d, ok := m.devices[id]
	if !ok {
		return fmt.Errorf("crush: unknown device %d", id)
	}
	d.Weight = w
	return nil
}

// MarkOut excludes a device from placement; MarkIn restores it.
func (m *Map) MarkOut(id ItemID) error { return m.setOut(id, true) }

// MarkIn restores a device excluded with MarkOut.
func (m *Map) MarkIn(id ItemID) error { return m.setOut(id, false) }

func (m *Map) setOut(id ItemID, out bool) error {
	d, ok := m.devices[id]
	if !ok {
		return fmt.Errorf("crush: unknown device %d", id)
	}
	d.Out = out
	return nil
}

// weightOf returns the effective placement weight of an item: for devices,
// the device weight (0 if out); for buckets, the sum of children weights.
func (m *Map) weightOf(id ItemID) float64 {
	if id >= 0 {
		d := m.devices[id]
		if d == nil || d.Out || d.Weight <= 0 {
			return 0
		}
		return d.Weight
	}
	b := m.buckets[id]
	if b == nil {
		return 0
	}
	sum := 0.0
	for _, c := range b.Items {
		sum += m.weightOf(c)
	}
	return sum
}

// chooseFrom picks one child of bucket b for input x and replica attempt r
// using the bucket's algorithm.
func (m *Map) chooseFrom(b *Bucket, x, r uint32) ItemID {
	switch b.Alg {
	case AlgUniform:
		return m.uniformChoose(b, x, r)
	case AlgList:
		return m.listChoose(b, x, r)
	default:
		return m.straw2(b, x, r)
	}
}

// uniformChoose selects by hash modulo; weights are assumed equal. Items
// with zero effective weight are rejected (the caller's retry loop supplies
// a fresh r).
func (m *Map) uniformChoose(b *Bucket, x, r uint32) ItemID {
	if len(b.Items) == 0 {
		return InvalidItem
	}
	item := b.Items[hash3(x, uint32(int64(b.ID)&0xffffffff), r)%uint32(len(b.Items))]
	if m.weightOf(item) <= 0 {
		return InvalidItem
	}
	return item
}

// listChoose walks tail to head: item i is taken with probability
// w_i / sum(w_0..w_i), each decision drawn from an independent per-item
// hash. Appending an item adds exactly one new decision in front of the
// unchanged old sequence, so data only ever moves TO the new tail item —
// the append-only stability the original CRUSH paper designed this bucket
// for.
func (m *Map) listChoose(b *Bucket, x, r uint32) ItemID {
	weights := make([]float64, len(b.Items))
	cums := make([]float64, len(b.Items))
	sum := 0.0
	for i, item := range b.Items {
		weights[i] = m.weightOf(item)
		sum += weights[i]
		cums[i] = sum
	}
	for i := len(b.Items) - 1; i >= 0; i-- {
		if weights[i] <= 0 {
			continue
		}
		item := b.Items[i]
		h := hash3(x, uint32(int64(item)&0xffffffff), r)
		u := float64(h&0xffffff) / float64(1<<24)
		if u < weights[i]/cums[i] {
			return item
		}
	}
	return InvalidItem
}

// straw2 implements the straw2 distribution: each child draws ln(u)/w and
// the maximum wins, which makes per-item placement probability exactly
// proportional to weight and placement of unrelated items independent.
func (m *Map) straw2(b *Bucket, x, r uint32) ItemID {
	best := InvalidItem
	bestDraw := math.Inf(-1)
	for _, item := range b.Items {
		w := m.weightOf(item)
		if w <= 0 {
			continue
		}
		h := hash3(x, uint32(int64(item)&0xffffffff), r)
		// Map hash to (0,1]; 0 would yield -Inf which still orders fine,
		// but avoid it for numerical hygiene.
		u := (float64(h&0xffff) + 1) / 65536.0
		draw := math.Log(u) / w
		if draw > bestDraw {
			bestDraw = draw
			best = item
		}
	}
	return best
}

// Select places n replicas for input x (a placement-group seed), returning
// device ids on n distinct second-level buckets (the failure domain, e.g.
// hosts). Fewer than n ids are returned if the hierarchy cannot satisfy the
// constraint.
func (m *Map) Select(x uint32, n int) []ItemID {
	rootB := m.buckets[m.root]
	if rootB == nil {
		return nil
	}
	out := make([]ItemID, 0, n)
	usedDomain := make(map[ItemID]bool)
	for rep := 0; rep < n; rep++ {
		placed := false
		for attempt := 0; attempt < m.ChooseRetries && !placed; attempt++ {
			r := uint32(rep + attempt*n)
			leaf, domain := m.descend(rootB, x, r)
			if leaf == InvalidItem {
				continue
			}
			if domain != InvalidItem && usedDomain[domain] {
				continue
			}
			usedDomain[domain] = true
			out = append(out, leaf)
			placed = true
		}
	}
	return out
}

// descend walks from bucket b to a leaf, returning the leaf and the first
// interior bucket below b encountered (the failure domain).
func (m *Map) descend(b *Bucket, x, r uint32) (leaf, domain ItemID) {
	domain = InvalidItem
	cur := b
	for {
		next := m.chooseFrom(cur, x, r)
		if next == InvalidItem {
			return InvalidItem, InvalidItem
		}
		if next >= 0 {
			return next, domain
		}
		if domain == InvalidItem {
			domain = next
		}
		cur = m.buckets[next]
		if cur == nil {
			return InvalidItem, InvalidItem
		}
	}
}

// Clone returns an independent deep copy of the hierarchy, so one epoch's
// placement changes (reweights, out-marks) cannot leak into another's.
func (m *Map) Clone() *Map {
	c := NewMap()
	c.root = m.root
	c.ChooseRetries = m.ChooseRetries
	for id, b := range m.buckets {
		items := make([]ItemID, len(b.Items))
		copy(items, b.Items)
		c.buckets[id] = &Bucket{ID: b.ID, Name: b.Name, Type: b.Type, Alg: b.Alg, Items: items}
	}
	for id, d := range m.devices {
		dd := *d
		c.devices[id] = &dd
	}
	return c
}

// BuildUniform constructs a two-level map: one root, hosts hosts each
// holding osdsPerHost devices of the given weight. Device ids are assigned
// host-major starting at 0.
func BuildUniform(hosts, osdsPerHost int, weight float64) *Map {
	m := NewMap()
	root := &Bucket{ID: -1, Name: "default", Type: "root"}
	_ = m.AddBucket(root)
	next := ItemID(0)
	for h := 0; h < hosts; h++ {
		hb := &Bucket{ID: ItemID(-2 - h), Name: fmt.Sprintf("host%d", h), Type: "host"}
		_ = m.AddBucket(hb)
		root.Items = append(root.Items, hb.ID)
		for o := 0; o < osdsPerHost; o++ {
			_ = m.AddDevice(&Device{ID: next, Weight: weight})
			hb.Items = append(hb.Items, next)
			next++
		}
	}
	return m
}

// BuildRacks constructs a three-level rack-aware map: one root, racks rack
// buckets, each holding hostsPerRack host buckets of osdsPerHost devices of
// the given weight. Device ids are assigned rack-major starting at 0, so
// consecutive ids share a rack. Because the rack level is the first interior
// level below the root, Select's failure-domain constraint places every
// replica of a PG on a distinct rack.
func BuildRacks(racks, hostsPerRack, osdsPerHost int, weight float64) *Map {
	m := NewMap()
	root := &Bucket{ID: -1, Name: "default", Type: "root"}
	_ = m.AddBucket(root)
	next := ItemID(0)
	for r := 0; r < racks; r++ {
		rb := &Bucket{ID: ItemID(-2 - r), Name: fmt.Sprintf("rack%d", r), Type: "rack"}
		_ = m.AddBucket(rb)
		root.Items = append(root.Items, rb.ID)
		for h := 0; h < hostsPerRack; h++ {
			hb := &Bucket{
				ID:   ItemID(-2 - racks - r*hostsPerRack - h),
				Name: fmt.Sprintf("rack%d-host%d", r, h),
				Type: "host",
			}
			_ = m.AddBucket(hb)
			rb.Items = append(rb.Items, hb.ID)
			for o := 0; o < osdsPerHost; o++ {
				_ = m.AddDevice(&Device{ID: next, Weight: weight})
				hb.Items = append(hb.Items, next)
				next++
			}
		}
	}
	return m
}

// DomainOf returns the id of the bucket of the given type on the path from
// the root to device dev, or InvalidItem if dev is not reachable under a
// bucket of that type. It is how callers map an OSD back to its rack (or
// host) without assuming anything about id arithmetic.
func (m *Map) DomainOf(dev ItemID, btype string) ItemID {
	root := m.buckets[m.root]
	if root == nil {
		return InvalidItem
	}
	return m.domainSearch(root, dev, btype, InvalidItem)
}

func (m *Map) domainSearch(b *Bucket, dev ItemID, btype string, cur ItemID) ItemID {
	if b.Type == btype {
		cur = b.ID
	}
	for _, item := range b.Items {
		if item == dev {
			return cur
		}
		if item < 0 {
			if child := m.buckets[item]; child != nil {
				if found := m.domainSearch(child, dev, btype, cur); found != InvalidItem || m.contains(child, dev) {
					return found
				}
			}
		}
	}
	return InvalidItem
}

// contains reports whether dev lives anywhere under bucket b.
func (m *Map) contains(b *Bucket, dev ItemID) bool {
	for _, item := range b.Items {
		if item == dev {
			return true
		}
		if item < 0 {
			if child := m.buckets[item]; child != nil && m.contains(child, dev) {
				return true
			}
		}
	}
	return false
}

// mapJSON is the deterministic wire form of a Map: buckets and devices are
// serialized as id-sorted slices, never as Go maps, so marshalling the same
// hierarchy always yields the same bytes and placement cannot pick up
// map-iteration nondeterminism through a serialize/deserialize cycle.
type mapJSON struct {
	Root          ItemID    `json:"root"`
	ChooseRetries int       `json:"choose_retries"`
	Buckets       []*Bucket `json:"buckets"`
	Devices       []*Device `json:"devices"`
}

// MarshalJSON encodes the hierarchy deterministically (buckets and devices
// in ascending id order).
func (m *Map) MarshalJSON() ([]byte, error) {
	j := mapJSON{Root: m.root, ChooseRetries: m.ChooseRetries}
	for _, b := range m.buckets {
		j.Buckets = append(j.Buckets, b)
	}
	sort.Slice(j.Buckets, func(i, k int) bool { return j.Buckets[i].ID < j.Buckets[k].ID })
	for _, d := range m.devices {
		j.Devices = append(j.Devices, d)
	}
	sort.Slice(j.Devices, func(i, k int) bool { return j.Devices[i].ID < j.Devices[k].ID })
	return json.Marshal(j)
}

// UnmarshalJSON rebuilds the hierarchy from its wire form.
func (m *Map) UnmarshalJSON(data []byte) error {
	var j mapJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	m.root = j.Root
	m.ChooseRetries = j.ChooseRetries
	m.buckets = make(map[ItemID]*Bucket, len(j.Buckets))
	m.devices = make(map[ItemID]*Device, len(j.Devices))
	for _, b := range j.Buckets {
		if b == nil {
			return fmt.Errorf("crush: null bucket in encoded map")
		}
		if _, dup := m.buckets[b.ID]; dup {
			return fmt.Errorf("crush: duplicate bucket id %d in encoded map", b.ID)
		}
		m.buckets[b.ID] = b
	}
	for _, d := range j.Devices {
		if d == nil {
			return fmt.Errorf("crush: null device in encoded map")
		}
		if _, dup := m.devices[d.ID]; dup {
			return fmt.Errorf("crush: duplicate device id %d in encoded map", d.ID)
		}
		m.devices[d.ID] = d
	}
	if m.root != InvalidItem && m.buckets[m.root] == nil {
		return fmt.Errorf("crush: encoded root %d has no bucket", m.root)
	}
	return nil
}

// hash3 is a Jenkins-style 3-word integer mix, the same family CRUSH's
// rjenkins1 hash belongs to. Exact constants differ from Ceph; determinism
// and avalanche behaviour are what placement quality depends on.
func hash3(a, b, c uint32) uint32 {
	const golden = 0x9e3779b9
	a, b, c = a+golden, b+golden, c+1315423911
	a -= b + c
	a ^= c >> 13
	b -= c + a
	b ^= a << 8
	c -= a + b
	c ^= b >> 13
	a -= b + c
	a ^= c >> 12
	b -= c + a
	b ^= a << 16
	c -= a + b
	c ^= b >> 5
	a -= b + c
	a ^= c >> 3
	b -= c + a
	b ^= a << 10
	c -= a + b
	c ^= b >> 15
	return c
}
