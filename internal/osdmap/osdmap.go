// Package osdmap implements the cluster map shared by monitors, OSDs and
// clients: an epoch, the set of up OSDs, the CRUSH hierarchy, and the
// object -> placement-group -> acting-set resolution path (RADOS §2).
package osdmap

import "doceph/internal/crush"

// Map is one epoch of cluster state. Maps are treated as immutable once
// published; Next derives a successor epoch.
type Map struct {
	Epoch uint32
	// PGCount is the number of placement groups in the (single) pool.
	PGCount uint32
	// Replicas is the pool replication factor.
	Replicas int
	// MinSize is the Ceph-style write quorum floor: with MinSize > 0 a PG
	// accepts (degraded) writes while its acting set holds at least MinSize
	// members and rejects them below that. Zero disables the gate entirely
	// (legacy behaviour).
	MinSize int
	// Crush is the placement hierarchy; each epoch owns an independent
	// copy so down-marks cannot leak between epochs.
	Crush *crush.Map
	// Down marks OSDs excluded from placement in this epoch.
	Down map[int32]bool

	// acting memoises ActingSet: clients and OSDs resolve the same few PGs
	// on every op, and CRUSH selection is the costly part. Row pg holds the
	// ids of pg's set in its first actingLen[pg]-1 entries; actingLen[pg]
	// zero means not computed yet. Filled lazily, dropped by MarkDown and
	// MarkUp, not inherited by Next. A map belongs to one simulation
	// environment, so the memo needs no lock.
	acting    []int32 // PGCount rows of Replicas ids
	actingLen []uint8
	// up is UpOSDs' answer, memoized alike (nil: not computed yet).
	up []int32
}

// New returns an epoch-1 map over the given hierarchy.
func New(crushMap *crush.Map, pgCount uint32, replicas int) *Map {
	return &Map{
		Epoch:    1,
		PGCount:  pgCount,
		Replicas: replicas,
		Crush:    crushMap,
		Down:     make(map[int32]bool),
	}
}

// Next returns a successor map with the epoch advanced and an independent
// Down set.
func (m *Map) Next() *Map {
	down := make(map[int32]bool, len(m.Down))
	for k, v := range m.Down {
		down[k] = v
	}
	return &Map{
		Epoch:    m.Epoch + 1,
		PGCount:  m.PGCount,
		Replicas: m.Replicas,
		MinSize:  m.MinSize,
		Crush:    m.Crush.Clone(),
		Down:     down,
	}
}

// MarkDown excludes an OSD from this map's placement (and from CRUSH
// selection).
func (m *Map) MarkDown(osd int32) {
	m.Down[osd] = true
	_ = m.Crush.MarkOut(crush.ItemID(osd))
	m.acting, m.actingLen, m.up = nil, nil, nil
}

// MarkUp restores an OSD.
func (m *Map) MarkUp(osd int32) {
	delete(m.Down, osd)
	_ = m.Crush.MarkIn(crush.ItemID(osd))
	m.acting, m.actingLen, m.up = nil, nil, nil
}

// IsUp reports whether osd participates in this epoch.
func (m *Map) IsUp(osd int32) bool { return !m.Down[osd] }

// UpOSDs returns the ids of all up devices in ascending order. The slice is
// the map's, computed once per change: callers only read it.
func (m *Map) UpOSDs() []int32 {
	if m.up == nil {
		m.up = []int32{}
		for _, id := range m.Crush.Devices() {
			if !m.Down[int32(id)] {
				m.up = append(m.up, int32(id))
			}
		}
	}
	return m.up
}

// PGForObject hashes an object name to its placement group, mirroring
// Ceph's stable ceph_str_hash + pg mask.
func (m *Map) PGForObject(object string) uint32 {
	h := uint32(2166136261) // FNV-1a, 32 bit
	for i := 0; i < len(object); i++ {
		h = (h ^ uint32(object[i])) * 16777619
	}
	return h % m.PGCount
}

// pgSeed decorrelates PG ids before they enter CRUSH.
func pgSeed(pg uint32) uint32 {
	x := pg*2654435761 + 0x9e3779b9
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	return x
}

// ActingSet returns the OSDs serving pg, primary first. The slice is shared
// with every other caller asking about pg in this epoch: read it, do not
// modify it.
func (m *Map) ActingSet(pg uint32) []int32 {
	r := m.Replicas
	if pg >= m.PGCount || r <= 0 || r >= 255 {
		return m.selectActing(pg, nil) // no memo row for it
	}
	if m.acting == nil {
		m.acting = make([]int32, int(m.PGCount)*r)
		m.actingLen = make([]uint8, m.PGCount)
	}
	row := m.acting[int(pg)*r : (int(pg)+1)*r : (int(pg)+1)*r]
	if m.actingLen[pg] == 0 {
		m.actingLen[pg] = uint8(len(m.selectActing(pg, row[:0])) + 1)
	}
	n := int(m.actingLen[pg]) - 1
	return row[:n:n]
}

// selectActing runs CRUSH for pg and appends the set to dst.
func (m *Map) selectActing(pg uint32, dst []int32) []int32 {
	for _, id := range m.Crush.Select(pgSeed(pg), m.Replicas) {
		dst = append(dst, int32(id))
	}
	return dst
}

// Primary returns the primary OSD for pg, or -1 if the PG is unservable.
func (m *Map) Primary(pg uint32) int32 {
	acting := m.ActingSet(pg)
	if len(acting) == 0 {
		return -1
	}
	return acting[0]
}
