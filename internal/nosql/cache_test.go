package nosql

import (
	"math/rand"
	"testing"
	"unsafe"
)

func TestBlockCacheBasicHitMiss(t *testing.T) {
	c := newBlockCache(2)
	a := blockID{table: 1, block: 1}
	b := blockID{table: 1, block: 2}
	if c.Touch(a) {
		t.Error("first touch should miss")
	}
	if !c.Touch(a) {
		t.Error("second touch should hit")
	}
	if c.Touch(b) {
		t.Error("new block should miss")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if got := c.HitRate(); got != 1.0/3.0 {
		t.Errorf("HitRate = %v, want 1/3", got)
	}
}

func TestBlockCacheLRUEviction(t *testing.T) {
	c := newBlockCache(2)
	a := blockID{table: 1, block: 1}
	b := blockID{table: 1, block: 2}
	d := blockID{table: 1, block: 3}
	c.Touch(a)
	c.Touch(b)
	c.Touch(a) // a is now MRU
	c.Touch(d) // evicts b (LRU)
	if !c.Touch(a) {
		t.Error("a should still be cached")
	}
	if c.Touch(b) {
		t.Error("b should have been evicted")
	}
}

func TestBlockCacheZeroCapacity(t *testing.T) {
	c := newBlockCache(0)
	a := blockID{table: 1, block: 1}
	if c.Touch(a) || c.Touch(a) {
		t.Error("zero-capacity cache must never hit")
	}
	if c.Len() != 0 {
		t.Error("zero-capacity cache must stay empty")
	}
	c.Admit(a)
	if c.Len() != 0 {
		t.Error("Admit must be a no-op at zero capacity")
	}
}

func TestBlockCacheAdmit(t *testing.T) {
	c := newBlockCache(2)
	a := blockID{table: 1, block: 1}
	c.Admit(a)
	if c.hits != 0 || c.misses != 0 {
		t.Error("Admit must not count as traffic")
	}
	if !c.Touch(a) {
		t.Error("admitted block should hit")
	}
	// Admitting an existing entry refreshes recency.
	b := blockID{table: 1, block: 2}
	d := blockID{table: 1, block: 3}
	c.Touch(b)
	c.Admit(a) // a MRU again
	c.Admit(d) // evicts b
	if c.Touch(b) {
		t.Error("b should have been evicted after Admit refreshed a")
	}
}

func TestBlockCacheInvalidateTable(t *testing.T) {
	c := newBlockCache(10)
	for i := uint32(0); i < 4; i++ {
		c.Touch(blockID{table: 7, block: i})
		c.Touch(blockID{table: 8, block: i})
	}
	c.InvalidateTable(7)
	if got := c.Len(); got != 4 {
		t.Errorf("Len after invalidate = %d, want 4", got)
	}
	if c.Touch(blockID{table: 7, block: 0}) {
		t.Error("invalidated block should miss")
	}
	if !c.Touch(blockID{table: 8, block: 0}) {
		t.Error("other table's block should still hit")
	}
}

func TestBlockCacheResize(t *testing.T) {
	c := newBlockCache(4)
	for i := uint32(0); i < 4; i++ {
		c.Touch(blockID{table: 1, block: i})
	}
	c.Resize(2)
	if got := c.Len(); got != 2 {
		t.Errorf("Len after shrink = %d, want 2", got)
	}
	// The two most recent survive.
	if !c.Touch(blockID{table: 1, block: 3}) {
		t.Error("MRU should survive shrink")
	}
	if c.Touch(blockID{table: 1, block: 0}) {
		t.Error("LRU should be evicted by shrink")
	}
	c.Resize(0)
	if c.Len() != 0 {
		t.Error("resize to zero should drain the cache")
	}
}

func TestBlockCacheHitRateEmpty(t *testing.T) {
	c := newBlockCache(1)
	if got := c.HitRate(); got != 0 {
		t.Errorf("HitRate with no traffic = %v, want 0", got)
	}
}

// TestBlockCacheStress cross-checks the intrusive list against a naive
// model under random traffic.
func TestBlockCacheStress(t *testing.T) {
	const capacity = 8
	c := newBlockCache(capacity)
	rng := rand.New(rand.NewSource(99))

	// Naive reference: slice ordered MRU-first.
	var ref []blockID
	refTouch := func(id blockID) bool {
		for i, e := range ref {
			if e == id {
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]blockID{id}, ref...)
				return true
			}
		}
		ref = append([]blockID{id}, ref...)
		if len(ref) > capacity {
			ref = ref[:capacity]
		}
		return false
	}

	for i := 0; i < 20000; i++ {
		id := blockID{table: uint64(rng.Intn(3)), block: uint32(rng.Intn(8))}
		got := c.Touch(id)
		want := refTouch(id)
		if got != want {
			t.Fatalf("step %d: Touch(%v) = %v, want %v", i, id, got, want)
		}
		if c.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, c.Len(), len(ref))
		}
	}
}

// TestBlockCacheHitsGrowWithCapacity is LRU inclusion as a metamorphic
// relation: replaying one seeded trace of touches, admissions and
// removals, a cache never hits less than a smaller one did.
func TestBlockCacheHitsGrowWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type step struct {
		op int
		id blockID
	}
	trace := make([]step, 50_000)
	for i := range trace {
		trace[i] = step{rng.Intn(10), blockID{table: uint64(rng.Intn(5)), block: uint32(rng.Intn(1 + rng.Intn(32)))}}
	}
	var prev uint64
	for capacity := 0; capacity <= 64; capacity++ {
		c := newBlockCache(capacity)
		for _, s := range trace {
			switch {
			case s.op < 7:
				c.Touch(s.id)
			case s.op < 9:
				c.Admit(s.id)
			default:
				c.Remove(s.id)
			}
		}
		if c.hits < prev {
			t.Fatalf("capacity %d hit %d times, capacity %d hit %d", capacity, c.hits, capacity-1, prev)
		}
		prev = c.hits
	}
	if prev == 0 {
		t.Fatal("the trace never hits: the relation holds vacuously")
	}
}

func TestMemtable(t *testing.T) {
	m := newMemtable(100)
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Error("fresh memtable should be empty")
	}
	m.Insert(1, 0, 100)
	m.Insert(2, 0, 100)
	m.Insert(1, 0, 100) // overwrite dedups keys but still accounts bytes
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if m.Bytes() != 300 {
		t.Errorf("Bytes = %v, want 300", m.Bytes())
	}
	if !m.Contains(1) || m.Contains(3) {
		t.Error("Contains is wrong")
	}
	keys, tombs, _ := m.Drain()
	if len(keys) != 2 {
		t.Errorf("Drain returned %d keys, want 2", len(keys))
	}
	if len(tombs) != 0 {
		t.Errorf("Drain returned %d tombstones, want 0", len(tombs))
	}
	if m.Len() != 0 || m.Bytes() != 0 || m.Contains(1) {
		t.Error("Drain should empty the memtable")
	}
}

func TestSSTableBasics(t *testing.T) {
	tb := newSSTable(5, []uint64{0, 1, 2, 3}, 1024, 2, 100)
	if !tb.Contains(2) || tb.Contains(9) {
		t.Error("Contains is wrong")
	}
	if tb.Len() != 4 {
		t.Errorf("Len = %d", tb.Len())
	}
	if tb.Bytes() != 4*1024 {
		t.Errorf("Bytes = %v", tb.Bytes())
	}
	// 4 keys at 2 keys/block = 2 physical blocks over 100-key space:
	// span = 50.
	if tb.blockSpan != 50 {
		t.Errorf("blockSpan = %d, want 50", tb.blockSpan)
	}
	b0 := tb.BlockFor(10)
	b1 := tb.BlockFor(60)
	if b0.table != 5 || b1.table != 5 {
		t.Error("BlockFor table mismatch")
	}
	if b0.block == b1.block {
		t.Error("distant keys should map to different blocks")
	}
	if tb.BlockFor(10) != tb.BlockFor(12) {
		t.Error("nearby keys should share a block")
	}
}

func TestMergeTablesDeduplicates(t *testing.T) {
	a := newSSTable(1, []uint64{1, 2, 3}, 1024, 2, 100)
	b := newSSTable(2, []uint64{3, 4}, 1024, 2, 100)
	out := mergeTables(3, []*ssTable{a, b}, 1, 1024, 2, 100)
	if out.Len() != 4 {
		t.Errorf("merged Len = %d, want 4 (dedup)", out.Len())
	}
	if out.level != 1 {
		t.Errorf("merged level = %d, want 1", out.level)
	}
	for _, k := range []uint64{1, 2, 3, 4} {
		if !out.Contains(k) {
			t.Errorf("merged table missing key %d", k)
		}
	}
}

func TestTableSet(t *testing.T) {
	var s tableSet
	a := newSSTable(1, []uint64{1}, 1024, 2, 100)
	b := newSSTable(2, []uint64{2, 3}, 1024, 2, 100)
	c := newSSTable(3, []uint64{4}, 1024, 2, 100)
	c.level = 2
	s.Add(a)
	s.Add(b)
	s.Add(c)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.TotalBytes(); got != 4*1024 {
		t.Errorf("TotalBytes = %v", got)
	}
	if got := len(s.AtLevel(0)); got != 2 {
		t.Errorf("AtLevel(0) = %d tables, want 2", got)
	}
	if got := s.MaxLevel(); got != 2 {
		t.Errorf("MaxLevel = %d, want 2", got)
	}
	stranger := newSSTable(99, []uint64{5}, 1024, 2, 100)
	removed := s.RemoveTables([]*ssTable{a, stranger})
	if removed != 1 || s.Len() != 2 {
		t.Errorf("RemoveTables: removed=%d len=%d", removed, s.Len())
	}
}

func TestBlockCacheRemove(t *testing.T) {
	c := newBlockCache(4)
	a := blockID{table: 1, block: 1}
	c.Touch(a)
	c.Remove(a)
	if c.Touch(a) {
		t.Error("removed block should miss")
	}
	// Removing an absent block is a no-op.
	c.Remove(blockID{table: 9, block: 9})
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestCacheNodeLayout pins the slab node at 24 bytes: the stored hash
// fills what would be blockID's padding, so keeping it costs no memory.
func TestCacheNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(cacheNode{}); got != 24 {
		t.Errorf("cacheNode is %d bytes, want 24", got)
	}
}

// TestBlockCacheFullHashCollision caches blocks whose 32-bit hashes are
// equal — two blocks of one table, and the same block of two tables —
// so the stored hash matches and only the id comparison keeps them apart.
func TestBlockCacheFullHashCollision(t *testing.T) {
	collide := func(id func(i uint32) blockID) (blockID, blockID) {
		seen := make(map[uint32]uint32)
		for i := uint32(0); ; i++ {
			h := id(i).hash()
			if j, ok := seen[h]; ok {
				return id(j), id(i)
			}
			seen[h] = i
		}
	}
	sameTable := func(i uint32) blockID { return blockID{table: 1, block: i} }
	sameBlock := func(i uint32) blockID { return blockID{table: uint64(i), block: 3} }
	for _, id := range []func(uint32) blockID{sameTable, sameBlock} {
		a, b := collide(id)
		c := newBlockCache(4)
		if c.Touch(a) || c.Touch(b) || !c.Touch(a) || !c.Touch(b) || c.Len() != 2 {
			t.Fatalf("%v and %v share a hash: want two entries, each hitting once cached", a, b)
		}
		c.Remove(a)
		if c.Len() != 1 || !c.Touch(b) {
			t.Fatalf("removing %v dropped %v, which shares its hash", a, b)
		}
		if err := c.checkStructure(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockCacheFreelistReuse pins the freelist contract: a node
// unlinked by Remove, eviction, or InvalidateTable is recycled into
// the next admission instead of growing the slab.
func TestBlockCacheFreelistReuse(t *testing.T) {
	c := newBlockCache(4)
	a := blockID{table: 1, block: 1}
	c.Touch(a)
	_, recycled := c.lookup(a)
	if recycled == 0 {
		t.Fatal("touched block is not indexed")
	}
	c.Remove(a)
	if c.free != recycled {
		t.Fatal("Remove should park the node on the freelist")
	}
	b := blockID{table: 2, block: 2}
	slab := len(c.nodes)
	c.Touch(b)
	if _, n := c.lookup(b); n != recycled {
		t.Error("admission should pop the recycled node, not grow the slab")
	}
	if c.free != 0 {
		t.Error("freelist should be drained after reuse")
	}
	if len(c.nodes) != slab {
		t.Errorf("slab grew from %d to %d nodes with a recycled node on hand", slab, len(c.nodes))
	}

	// Eviction recycles too: fill past capacity and check the evicted
	// node comes back on the next miss.
	for i := uint32(0); i < 4; i++ {
		c.Touch(blockID{table: 3, block: i})
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", c.Len())
	}
	_, victim := c.lookup(blockID{table: 3, block: 0}) // the LRU block
	slab = len(c.nodes)
	evictor := blockID{table: 4, block: 0}
	c.Touch(evictor) // evicts the LRU block
	if c.Len() != 4 {
		t.Errorf("Len after eviction = %d, want 4", c.Len())
	}
	if c.free != victim {
		t.Error("eviction should park the victim's node on the freelist")
	}
	c.Touch(blockID{table: 4, block: 1}) // pops the victim's node, evicts again
	if _, n := c.lookup(blockID{table: 4, block: 1}); n != victim {
		t.Error("the miss after an eviction should reuse the victim's node")
	}
	if len(c.nodes) != slab {
		t.Errorf("slab grew from %d to %d nodes under miss/evict churn", slab, len(c.nodes))
	}

	// InvalidateTable recycles every node of the table at once.
	freeLen := func() int {
		n := 0
		for f := c.free; f != 0; f = c.nodes[f].next {
			n++
		}
		return n
	}
	before := freeLen()
	invalidated := 0
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		if c.nodes[n].table == 3 {
			invalidated++
		}
	}
	if invalidated == 0 {
		t.Fatal("no block of table 3 left to invalidate")
	}
	c.InvalidateTable(3)
	if got := freeLen() - before; got != invalidated {
		t.Errorf("InvalidateTable recycled %d nodes, want %d", got, invalidated)
	}
	if got := c.Len() + freeLen() + 1; got != len(c.nodes) {
		t.Errorf("live + free + sentinel = %d nodes, slab holds %d", got, len(c.nodes))
	}
}

// TestBlockCacheSteadyStateAllocFree pins that a warm cache under
// continuous miss/evict churn performs zero allocations per Touch:
// every admission is served from the freelist, and neither the slab
// nor the index grows once the cache has been full.
func TestBlockCacheSteadyStateAllocFree(t *testing.T) {
	const capacity = 64
	c := newBlockCache(capacity)
	// Warm: fill to capacity and run many eviction cycles.
	var i uint32
	for ; i < 16*capacity; i++ {
		c.Touch(blockID{table: 1, block: i})
	}
	slab, index := len(c.nodes), len(c.index)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Touch(blockID{table: 1, block: i})
		i++
	})
	if allocs > 0 {
		t.Fatalf("warm Touch allocates %.2f times per miss, want 0", allocs)
	}
	if len(c.nodes) != slab || len(c.index) != index {
		t.Errorf("slab %d -> %d nodes, index %d -> %d slots under steady churn", slab, len(c.nodes), index, len(c.index))
	}
	if slab > capacity+2 {
		t.Errorf("slab holds %d nodes for capacity %d, want at most capacity + 2 (sentinel, one in flight)", slab, capacity)
	}
}

// TestTableSetRemoveTables covers the slice-form removal used by
// compaction completion.
func TestTableSetRemoveTables(t *testing.T) {
	var s tableSet
	a := newSSTable(1, []uint64{1}, 1024, 2, 100)
	b := newSSTable(2, []uint64{2}, 1024, 2, 100)
	c := newSSTable(3, []uint64{3}, 1024, 2, 100)
	s.Add(a)
	s.Add(b)
	s.Add(c)
	if got := s.RemoveTables([]*ssTable{a, c}); got != 2 {
		t.Errorf("RemoveTables = %d, want 2", got)
	}
	if s.Len() != 1 || s.tables[0] != b {
		t.Errorf("wrong survivor set: len=%d", s.Len())
	}
	if s.RemoveTables(nil) != 0 {
		t.Error("RemoveTables(nil) should be a no-op")
	}
	// Unknown tables remove nothing.
	d := newSSTable(4, []uint64{4}, 1024, 2, 100)
	if got := s.RemoveTables([]*ssTable{d}); got != 0 {
		t.Errorf("RemoveTables(unknown) = %d, want 0", got)
	}
}

// TestMemtableDrainScratchReuse pins Drain's scratch contract: the
// returned buffers are reused across flushes, and a second fill/drain
// cycle returns exactly the new contents.
func TestMemtableDrainScratchReuse(t *testing.T) {
	m := newMemtable(1024)
	m.Insert(5, 0, 1024)
	m.Insert(3, 0, 1024)
	m.Tombstone(9)
	keys1, tombs1, _ := m.Drain()
	if len(keys1) != 3 || keys1[0] != 3 || keys1[1] != 5 || keys1[2] != 9 {
		t.Fatalf("first drain keys = %v", keys1)
	}
	if len(tombs1) != 1 || tombs1[0] != 9 {
		t.Fatalf("first drain tombs = %v", tombs1)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatal("drain should empty the memtable")
	}
	if k, ok := m.seek(0); ok {
		t.Fatalf("drained memtable still holds key %d", k)
	}
	m.Insert(7, 0, 1024)
	keys2, tombs2, _ := m.Drain()
	if len(keys2) != 1 || keys2[0] != 7 {
		t.Fatalf("second drain keys = %v", keys2)
	}
	if len(tombs2) != 0 {
		t.Fatalf("second drain tombs = %v", tombs2)
	}
	if &keys2[0] != &keys1[0] {
		t.Error("second drain's keys do not reuse the first's backing")
	}
	// TTL'd cells surface through the reused expiry scratch.
	m.Insert(11, 42.0, 1024)
	_, _, exp := m.Drain()
	if len(exp) != 1 || exp[11] != 42.0 {
		t.Fatalf("expiry scratch = %v", exp)
	}
	m.Insert(13, 0, 1024)
	if _, _, exp := m.Drain(); exp != nil {
		t.Fatalf("expiry-free drain should return nil map, got %v", exp)
	}

	// Once every buffer has seen a memtable this size, a whole
	// fill/scan/drain cycle allocates nothing.
	cycle := func() {
		for k := uint64(0); k < 512; k++ {
			m.Insert(k*2654435761%4096, float64(k%3), 1024)
			if k%64 == 0 {
				m.Tombstone(k)
				m.seek(k)
			}
		}
		m.Drain()
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Errorf("warm fill/scan/drain cycle allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkBlockCacheTouch measures the miss/evict/admit cycle — the
// hottest path of the collect stage. Run with -benchmem: the alloc
// column should read 0 allocs/op once the cache is warm.
func BenchmarkBlockCacheTouch(b *testing.B) {
	c := newBlockCache(1024)
	rng := rand.New(rand.NewSource(1))
	ids := make([]blockID, 4096)
	for i := range ids {
		ids[i] = blockID{table: uint64(i / 256), block: uint32(rng.Int31n(1 << 16))}
	}
	for _, id := range ids {
		c.Touch(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(ids[i%len(ids)])
	}
}

// BenchmarkBlockCacheMiss isolates the miss path: cycling through four
// times the capacity in order, every Touch misses, admits, and evicts
// the least recently used block, whose index slot is found and whose
// probe run is shifted back.
func BenchmarkBlockCacheMiss(b *testing.B) {
	const capacity = 1024
	c := newBlockCache(capacity)
	ids := make([]blockID, 4*capacity)
	for i := range ids {
		ids[i] = blockID{table: uint64(i % 24), block: uint32(i / 24)}
	}
	for _, id := range ids {
		c.Touch(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(ids[i%len(ids)])
	}
	if c.hits != 0 {
		b.Fatalf("%d hits on a cycle four times the capacity", c.hits)
	}
}

// BenchmarkBlockCacheHit isolates the pure hit path (moveToFront).
func BenchmarkBlockCacheHit(b *testing.B) {
	c := newBlockCache(64)
	for i := uint32(0); i < 64; i++ {
		c.Touch(blockID{table: 1, block: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(blockID{table: 1, block: uint32(i % 64)})
	}
}
