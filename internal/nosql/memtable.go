package nosql

import "slices"

// memCell is one memtable entry: the newest cell written for a key
// since the last flush.
type memCell struct {
	tomb bool
	// expiry is the virtual time at which a TTL'd cell stops being
	// visible; 0 means the cell never expires.
	expiry float64
}

// memtable is the in-memory write-back cache of rows (Section 2.2.1).
// Writes are batched here until the cleanup threshold triggers a flush
// that turns the contents into an immutable SSTable.
type memtable struct {
	cells    map[uint64]memCell
	rowBytes int
	bytes    float64

	// run is the ascending key order as of the last fold; fresh holds the
	// keys first written since then, in arrival order. Together they are
	// exactly the cell map's key set, so a range scan after k new keys
	// folds those k in rather than re-sorting everything the map holds.
	run   []uint64
	fresh []uint64

	// drainTombs/drainExp are flush scratch: Drain's outputs are copied
	// into the new SSTable's own structures immediately, so the memtable
	// owns the buffers and reuses them across flushes. The drained keys
	// need no buffer of their own: they are the run.
	drainTombs []uint64
	drainExp   map[uint64]float64
}

func newMemtable(rowBytes int) *memtable {
	return &memtable{
		cells:    make(map[uint64]memCell, 1024),
		rowBytes: rowBytes,
	}
}

// Insert records a write of key carrying payloadBytes of cell data,
// expiring at the given virtual time (0 = never). Re-writing a key
// overwrites in place (the memtable deduplicates), but still accounts
// bytes because the commit-log entry and cell versions occupy space
// until flush.
//
//rafiki:hot
func (m *memtable) Insert(key uint64, expiry, payloadBytes float64) {
	if _, ok := m.cells[key]; !ok {
		m.fresh = append(m.fresh, key)
	}
	m.cells[key] = memCell{expiry: expiry}
	m.bytes += payloadBytes
}

// Tombstone records a delete of key (Section 2.2.1: compaction later
// "evicts tombstones").
//
//rafiki:hot
func (m *memtable) Tombstone(key uint64) {
	if _, ok := m.cells[key]; !ok {
		m.fresh = append(m.fresh, key)
	}
	m.cells[key] = memCell{tomb: true}
	m.bytes += float64(m.rowBytes) / 8 // tombstones are small cells
}

// Contains reports whether key has been written since the last flush.
//
//rafiki:hot
func (m *memtable) Contains(key uint64) bool {
	_, ok := m.cells[key]
	return ok
}

// Cell returns the newest cell for key and whether one exists.
//
//rafiki:hot
func (m *memtable) Cell(key uint64) (memCell, bool) {
	c, ok := m.cells[key]
	return c, ok
}

// IsTombstone reports whether the memtable's newest cell for key is a
// delete marker.
//
//rafiki:hot
func (m *memtable) IsTombstone(key uint64) bool {
	return m.cells[key].tomb
}

// Bytes returns the accounted size of the memtable.
//
//rafiki:hot
func (m *memtable) Bytes() float64 { return m.bytes }

// Len returns the number of distinct keys held.
//
//rafiki:hot
func (m *memtable) Len() int { return len(m.cells) }

// SortedKeys returns the memtable's distinct keys in ascending order.
// The returned slice is owned by the memtable and valid until the next
// mutation; range scans use it as the memtable's merge source.
//
//rafiki:view
//rafiki:hot
func (m *memtable) SortedKeys() []uint64 {
	m.fold()
	return m.run
}

// fold merges the fresh keys into the run in place: sort the k fresh
// keys, grow the run by k, then from the largest fresh key down, slide
// the run's elements above it up into their final place and drop it in
// below them. That is O(k log k) for the sort, k binary searches, and
// the run elements above the smallest fresh key moved once each, as
// blocks — and nothing when k is 0. A key is fresh only on its first
// write since the last drain, so the two sides never share a key.
//
//rafiki:hot
func (m *memtable) fold() {
	if len(m.fresh) == 0 {
		return
	}
	slices.Sort(m.fresh)
	end := len(m.run) // run[:end] is the part of the old run not yet placed
	m.run = append(m.run, m.fresh...)
	for j := len(m.fresh) - 1; j >= 0; j-- {
		p := seekGE(m.run[:end], m.fresh[j])
		copy(m.run[p+j+1:], m.run[p:end]) // j+1 fresh keys still sort below these
		m.run[p+j] = m.fresh[j]
		end = p
	}
	m.fresh = m.fresh[:0]
}

// Drain empties the memtable and returns its distinct keys, the subset
// that are tombstones, and the expiry times of the TTL'd subset, ready
// to become an SSTable. Keys and tombstones come off the run, so both
// are ascending and drain order never inherits map iteration order. The
// returned slices and map are scratch owned by the memtable, valid only
// until its next mutation — callers copy them into the flushed table
// before returning.
//
//rafiki:scratch
func (m *memtable) Drain() (keys []uint64, tombstones []uint64, expiries map[uint64]float64) {
	m.fold()
	keys = m.run
	tombstones = m.drainTombs[:0]
	clear(m.drainExp)
	for _, k := range keys {
		if c := m.cells[k]; c.tomb {
			tombstones = append(tombstones, k)
		} else if c.expiry > 0 {
			if m.drainExp == nil {
				m.drainExp = make(map[uint64]float64)
			}
			m.drainExp[k] = c.expiry
		}
	}
	if len(m.drainExp) > 0 {
		expiries = m.drainExp
	}
	m.drainTombs = tombstones
	clear(m.cells)
	m.bytes = 0
	m.run = m.run[:0]
	return keys, tombstones, expiries
}
