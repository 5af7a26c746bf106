package nosql

import "slices"

// tableRun is the body of an SSTable: the run and what index derives
// from it. Once index returns, nothing in it is written again — a
// preloaded run is shared by every engine built over the same key space
// (see preload.go) — except by rebuild, on a merge output no reader has
// seen yet. Code outside index reads the arrays through the ssTable's
// keys, filter and bitmap views.
type tableRun struct {
	// sorted is the table's one representation of its cell set: every
	// physically present key, live or tombstone, ascending and distinct
	// — the physical layout. minKey/maxKey, blockSpan, bloom and present
	// are derived from it by index.
	sorted         []uint64
	minKey, maxKey uint64
	// present answers Contains in one probe: bit k-minKey is set when k
	// is in the run. It exists only while the run is dense (key span <=
	// 64 x len, so it never outweighs the run itself); a sparse table
	// leaves it nil and Contains binary-searches sorted instead.
	present []uint64
	// blockSpan maps a key to its physical block: tables are sorted, so
	// a table holding len keys out of keySpace occupies about
	// len/keysPerBlock physical blocks, and uniformly-spread keys land
	// in block key/blockSpan.
	blockSpan uint64
	// bloom is the table's real Bloom filter; reads consult it before
	// paying for index and block fetches.
	bloom bloomFilter
}

// ssTable is an immutable on-disk sorted table. The simulator tracks the
// exact key set of every table so that read amplification — how many
// tables actually hold a version of a key — is mechanistic rather than
// estimated. The struct itself is the per-engine header (identity,
// recency, level, the cells' side maps) over a run that may be shared.
type ssTable struct {
	id uint64
	*tableRun
	// tombs marks the subset of cells that are delete markers.
	tombs map[uint64]struct{}
	// expiry holds the virtual expiry time of the TTL'd subset of
	// cells; absent keys never expire. nil until a TTL'd cell lands.
	expiry map[uint64]float64
	// dropped collects the cells dropCell removed since the last rebuild.
	dropped []uint64
	// seq is the logical recency of the table's cells: flush order for
	// fresh tables, the max input seq for merged ones. Conflict
	// resolution across tables picks the highest seq.
	seq   uint64
	level int // 0 for size-tiered and L0; >0 for leveled runs
	// compacting marks tables already claimed by a pending compaction
	// task so that the strategy does not claim them twice.
	compacting bool

	rowBytes     int
	keysPerBlock int
}

// newSSTable builds a table over keys, which must be ascending and
// distinct (index panics otherwise). The table takes ownership of the
// slice: callers handing in scratch pass a copy.
func newSSTable(id uint64, keys []uint64, rowBytes, keysPerBlock, keySpace int) *ssTable {
	t := &ssTable{
		id:           id,
		tableRun:     &tableRun{sorted: keys},
		seq:          id,
		rowBytes:     rowBytes,
		keysPerBlock: keysPerBlock,
	}
	t.index(keysPerBlock, keySpace)
	return t
}

// keys returns the table's run, ascending and distinct.
//
//rafiki:view
func (t *ssTable) keys() []uint64 { return t.sorted }

// filter returns the table's Bloom filter.
//
//rafiki:view
func (t *ssTable) filter() *bloomFilter { return &t.bloom }

// bitmap returns the table's presence bitmap, nil for a sparse run.
//
//rafiki:view
func (t *ssTable) bitmap() []uint64 { return t.present }

// markTombstones flags the given keys as delete markers; they must
// already be present in the table's cell set.
func (t *ssTable) markTombstones(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	if t.tombs == nil {
		t.tombs = make(map[uint64]struct{}, len(keys))
	}
	for _, k := range keys {
		t.tombs[k] = struct{}{}
	}
}

// setTombstone flags a single key as a delete marker. The tombs map is
// allocated lazily so that tombstone-free tables — the overwhelmingly
// common case on the collect hot path — carry no map at all.
func (t *ssTable) setTombstone(key uint64) {
	if t.tombs == nil {
		t.tombs = make(map[uint64]struct{})
	}
	t.tombs[key] = struct{}{}
}

// markExpiries records the expiry times of the table's TTL'd cells;
// the keys must already be present in the table's cell set.
func (t *ssTable) markExpiries(expiries map[uint64]float64) {
	if len(expiries) == 0 {
		return
	}
	if t.expiry == nil {
		t.expiry = make(map[uint64]float64, len(expiries))
	}
	for k, exp := range expiries {
		t.expiry[k] = exp
	}
}

// ExpiryOf returns the virtual expiry time of the table's cell for key,
// or 0 when the cell never expires.
//
//rafiki:hot
func (t *ssTable) ExpiryOf(key uint64) float64 {
	return t.expiry[key]
}

// IsTombstone reports whether the table's cell for key is a delete
// marker.
//
//rafiki:hot
func (t *ssTable) IsTombstone(key uint64) bool {
	_, ok := t.tombs[key]
	return ok
}

// dropCell removes a cell entirely (tombstone garbage collection). The
// run and everything derived from it stay stale until rebuild.
func (t *ssTable) dropCell(key uint64) {
	delete(t.tombs, key)
	delete(t.expiry, key)
	t.dropped = append(t.dropped, key)
}

// rebuild filters the dropped cells out of the run in place and
// refreshes the derived structures. Only a merge output that is not yet
// published may be rebuilt: its run is its own.
func (t *ssTable) rebuild(keySpace int) {
	slices.Sort(t.dropped)
	t.sorted = slices.DeleteFunc(t.sorted, func(k uint64) bool {
		_, gone := slices.BinarySearch(t.dropped, k)
		return gone
	})
	t.dropped = nil
	t.index(t.keysPerBlock, keySpace)
}

// index derives the key range, block span, Bloom filter and presence
// bitmap from the run in one ordered pass, checking the ascending-
// distinct contract as it goes. Filter and bitmap bits are OR-ed in, so
// the result is a function of the key set alone.
func (t *tableRun) index(keysPerBlock, keySpace int) {
	n := len(t.sorted)
	t.minKey, t.maxKey, t.present = 0, 0, nil
	t.setBlockSpan(keysPerBlock, keySpace)
	t.bloom = newBloomFilter(n, defaultBloomFPRate)
	if n == 0 {
		return
	}
	t.minKey, t.maxKey = t.sorted[0], t.sorted[n-1]
	if span := t.maxKey - t.minKey; span < 64*uint64(n) {
		t.present = make([]uint64, span/64+1)
	}
	for i, k := range t.sorted {
		if (i > 0 && k <= t.sorted[i-1]) || k > t.maxKey {
			panic("nosql: sstable keys must be ascending and distinct")
		}
		t.bloom.Add(k)
		if t.present != nil {
			off := k - t.minKey
			t.present[off/64] |= 1 << (off % 64)
		}
	}
}

// defaultBloomFPRate matches Cassandra's size-tiered default target.
const defaultBloomFPRate = 0.01

// MayContainHashed consults the Bloom filter for the key whose hash2
// pair is (h1, h2): false means definitely absent.
//
//rafiki:hot
func (t *ssTable) MayContainHashed(h1, h2 uint64) bool {
	return t.filter().MayContainHashed(h1, h2)
}

// setBlockSpan recomputes the key-to-physical-block divisor from the
// table's density within the key space.
func (t *tableRun) setBlockSpan(keysPerBlock, keySpace int) {
	physBlocks := (len(t.sorted) + keysPerBlock - 1) / keysPerBlock
	if physBlocks < 1 {
		physBlocks = 1
	}
	span := uint64(keySpace / physBlocks)
	if span < 1 {
		span = 1
	}
	t.blockSpan = span
}

// Contains reports whether the table holds a version of key.
//
//rafiki:hot
func (t *ssTable) Contains(key uint64) bool {
	if key < t.minKey || key > t.maxKey {
		return false
	}
	if present := t.bitmap(); present != nil {
		off := key - t.minKey
		return present[off/64]&(1<<(off%64)) != 0
	}
	keys := t.keys()
	i := seekGE(keys, key)
	return i < len(keys) && keys[i] == key
}

// Bytes returns the table's on-disk size; tombstone cells are small.
func (t *ssTable) Bytes() float64 {
	live := t.Len() - len(t.tombs)
	return float64(live*t.rowBytes) + float64(len(t.tombs)*t.rowBytes)/8
}

// Len returns the number of distinct keys in the table.
func (t *ssTable) Len() int { return len(t.keys()) }

// BlockFor returns the cache block holding key within this table.
// Tables are sorted by key, so adjacent keys share blocks; a compacted
// output is a new table with new block IDs, which is exactly the cache
// churn real compaction causes.
//
//rafiki:hot
func (t *ssTable) BlockFor(key uint64) blockID {
	return blockID{table: t.id, block: uint32(key / t.blockSpan)}
}

// mergeTables merges the cells of tables into a single new table at
// the given level. This is the logical effect of compaction: per key,
// only the newest cell (by table seq) survives — "merges keys, combines
// columns, evicts [shadowed] data" (Section 2.2.1). Tombstone cells
// survive the merge; whether they can be evicted entirely depends on
// tables outside the merge and is decided by the engine.
func mergeTables(id uint64, tables []*ssTable, level, rowBytes, keysPerBlock, keySpace int) *ssTable {
	total := 0
	var maxSeq uint64
	for _, t := range tables {
		total += t.Len()
		if t.seq > maxSeq {
			maxSeq = t.seq
		}
	}
	out := &ssTable{
		id:           id,
		tableRun:     &tableRun{sorted: make([]uint64, 0, total)},
		seq:          maxSeq,
		level:        level,
		rowBytes:     rowBytes,
		keysPerBlock: keysPerBlock,
	}
	// k-way merge over the inputs' runs (fan-in is maxThreshold-bounded,
	// so the cursors are scanned linearly): the next key is the minimum
	// under the cursors, and its cell comes from the highest-seq table
	// holding it — the earliest input on a seq tie.
	pos := make([]int, len(tables))
	for {
		var src *ssTable
		var key uint64
		for i, t := range tables {
			if pos[i] == t.Len() {
				continue
			}
			if k := t.keys()[pos[i]]; src == nil || k < key || (k == key && t.seq > src.seq) {
				src, key = t, k
			}
		}
		if src == nil {
			break
		}
		for i, t := range tables {
			if pos[i] < t.Len() && t.keys()[pos[i]] == key {
				pos[i]++
			}
		}
		out.sorted = append(out.sorted, key)
		if src.IsTombstone(key) {
			out.setTombstone(key)
		} else if exp := src.ExpiryOf(key); exp > 0 {
			if out.expiry == nil {
				out.expiry = make(map[uint64]float64)
			}
			out.expiry[key] = exp
		}
	}
	// Overlapping inputs leave the run shorter than total: a merged run
	// is kept at the size of their union, not of their sum.
	if cap(out.sorted) > len(out.sorted) {
		out.sorted = append(make([]uint64, 0, len(out.sorted)), out.sorted...)
	}
	out.index(keysPerBlock, keySpace)
	return out
}

// tableSet is the collection of live SSTables, maintained per engine.
type tableSet struct {
	tables []*ssTable
}

// Add appends a table.
func (s *tableSet) Add(t *ssTable) {
	s.tables = append(s.tables, t)
}

// RemoveTables drops exactly the given tables (matched by ID) and
// returns how many were removed. Compaction completion uses this form
// to avoid building a per-call ID map: input sets are tiny (a handful
// of tables), so the linear membership scan is cheaper than a map.
func (s *tableSet) RemoveTables(tables []*ssTable) int {
	if len(tables) == 0 {
		return 0
	}
	kept := s.tables[:0]
	removed := 0
	for _, t := range s.tables {
		if tablesContain(tables, t.id) {
			removed++
			continue
		}
		kept = append(kept, t)
	}
	// The vacated slots would keep the removed tables, and the runs under
	// them, reachable.
	clear(s.tables[len(kept):])
	s.tables = kept
	return removed
}

// Len returns the number of live tables.
func (s *tableSet) Len() int { return len(s.tables) }

// TotalBytes sums the on-disk size of all live tables.
func (s *tableSet) TotalBytes() float64 {
	var b float64
	for _, t := range s.tables {
		b += t.Bytes()
	}
	return b
}

// AtLevel returns the live tables at the given level, preserving age
// order (oldest first).
func (s *tableSet) AtLevel(level int) []*ssTable {
	var out []*ssTable
	for _, t := range s.tables {
		if t.level == level {
			out = append(out, t)
		}
	}
	return out
}

// MaxLevel returns the highest populated level.
func (s *tableSet) MaxLevel() int {
	maxL := 0
	for _, t := range s.tables {
		if t.level > maxL {
			maxL = t.level
		}
	}
	return maxL
}
