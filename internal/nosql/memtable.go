package nosql

import (
	"math/bits"
	"slices"
)

// memCell is one memtable entry: the newest cell written for a key
// since the last flush.
type memCell struct {
	tomb bool
	// expiry is the virtual time at which a TTL'd cell stops being
	// visible; 0 means the cell never expires.
	expiry float64
}

// memCeiling is the first key id the memtable's bitmap does not cover;
// the bitmap grows on demand up to it, 4 MiB at most.
const memCeiling = 1 << 24

// memtable is the in-memory write-back cache of rows (Section 2.2.1).
// Writes are batched here until the cleanup threshold triggers a flush
// that turns the contents into an immutable SSTable.
type memtable struct {
	// bits holds two words per 64 key ids: bit k%64 of bits[2(k/64)] is
	// set when key k is held, and the same bit of bits[2(k/64)+1] when
	// its cell also sits in side. A plain write touches only the first.
	bits []uint64
	// side holds every cell that is not a plain write below memCeiling:
	// tombstones, TTL'd cells, and every key at or past the ceiling.
	side     map[uint64]memCell
	far      []uint64 // the held keys at or past memCeiling, ascending
	n        int      // distinct keys held
	rowBytes int
	bytes    float64

	// drainKeys/drainTombs/drainExp are Drain's scratch, reused across
	// flushes: its outputs are copied into the new SSTable immediately.
	drainKeys, drainTombs []uint64
	drainExp              map[uint64]float64
}

func newMemtable(rowBytes int) *memtable {
	return &memtable{side: make(map[uint64]memCell), rowBytes: rowBytes}
}

// Insert records a write of key carrying payloadBytes of cell data,
// expiring at the given virtual time (0 = never). Re-writing a key
// overwrites in place (the memtable deduplicates), but still accounts
// bytes because the commit-log entry and cell versions occupy space
// until flush.
//
//rafiki:hot
func (m *memtable) Insert(key uint64, expiry, payloadBytes float64) {
	m.put(key, memCell{expiry: expiry}, payloadBytes)
}

// Tombstone records a delete of key (Section 2.2.1: compaction later
// "evicts tombstones").
//
//rafiki:hot
func (m *memtable) Tombstone(key uint64) {
	m.put(key, memCell{tomb: true}, float64(m.rowBytes)/8) // tombstones are small cells
}

// put makes c key's newest cell. A plain cell below the ceiling sets one
// bit, and clears the key's side entry only when its side bit says there
// is one.
//
//rafiki:hot
func (m *memtable) put(key uint64, c memCell, payloadBytes float64) {
	m.bytes += payloadBytes
	if key >= memCeiling {
		if _, ok := m.side[key]; !ok {
			m.far = slices.Insert(m.far, seekGE(m.far, key), key)
			m.n++
		}
		m.side[key] = c
		return
	}
	i := int(key/64) * 2
	if i >= len(m.bits) { // at least twofold, so a rising frontier rarely reallocates
		n := min(max(i+2, 2*len(m.bits)), 2*memCeiling/64)
		m.bits = append(m.bits, make([]uint64, n-len(m.bits))...)
	}
	b := uint64(1) << (key % 64)
	if m.bits[i]&b == 0 {
		m.bits[i] |= b
		m.n++
	}
	if c != (memCell{}) {
		m.bits[i+1] |= b
		m.side[key] = c
	} else if m.bits[i+1]&b != 0 {
		m.bits[i+1] &^= b
		delete(m.side, key)
	}
}

// Contains reports whether key has been written since the last flush.
//
//rafiki:hot
func (m *memtable) Contains(key uint64) bool {
	if i := key / 64 * 2; i < uint64(len(m.bits)) {
		return m.bits[i]&(1<<(key%64)) != 0
	}
	_, ok := m.side[key]
	return ok
}

// Cell returns the newest cell for key and whether one exists.
//
//rafiki:hot
func (m *memtable) Cell(key uint64) (memCell, bool) {
	if i := key / 64 * 2; i < uint64(len(m.bits)) {
		b := uint64(1) << (key % 64)
		if m.bits[i+1]&b == 0 {
			return memCell{}, m.bits[i]&b != 0
		}
	}
	c, ok := m.side[key]
	return c, ok
}

// IsTombstone reports whether the memtable's newest cell for key is a
// delete marker.
//
//rafiki:hot
func (m *memtable) IsTombstone(key uint64) bool {
	c, _ := m.Cell(key)
	return c.tomb
}

// Bytes returns the accounted size of the memtable.
//
//rafiki:hot
func (m *memtable) Bytes() float64 { return m.bytes }

// Len returns the number of distinct keys held.
//
//rafiki:hot
func (m *memtable) Len() int { return m.n }

// seek returns the smallest held key at or past from, or false when
// there is none: a range scan's memtable cursor. It finds the next set
// bit of the bitmap, then binary-searches the far keys.
//
//rafiki:hot
func (m *memtable) seek(from uint64) (uint64, bool) {
	if i := from / 64 * 2; i < uint64(len(m.bits)) {
		for w := m.bits[i] &^ (1<<(from%64) - 1); ; w = m.bits[i] {
			if w != 0 {
				return i*32 + uint64(bits.TrailingZeros64(w)), true
			}
			if i += 2; i >= uint64(len(m.bits)) {
				break
			}
		}
	}
	if j := seekGE(m.far, from); j < len(m.far) {
		return m.far[j], true
	}
	return 0, false
}

// Drain empties the memtable and returns its distinct keys, the subset
// that are tombstones, and the expiry times of the TTL'd subset, ready
// to become an SSTable. Keys come off a walk of the bitmap's words and
// then the far list, so keys and tombstones are ascending with no sort.
// The returned slices and map are scratch owned by the memtable, valid
// only until its next mutation — callers copy them into the flushed
// table before returning.
//
//rafiki:scratch
func (m *memtable) Drain() (keys []uint64, tombstones []uint64, expiries map[uint64]float64) {
	keys, tombstones = m.drainKeys[:0], m.drainTombs[:0]
	clear(m.drainExp)
	for i := 0; i < len(m.bits); i += 2 {
		for w := m.bits[i]; w != 0; w &= w - 1 {
			keys = append(keys, uint64(i)*32+uint64(bits.TrailingZeros64(w)))
		}
	}
	keys = append(keys, m.far...)
	for _, k := range keys {
		if c, _ := m.Cell(k); c.tomb {
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
	m.drainKeys, m.drainTombs = keys, tombstones
	clear(m.bits)
	clear(m.side)
	m.far = m.far[:0]
	m.n, m.bytes = 0, 0
	return keys, tombstones, expiries
}
