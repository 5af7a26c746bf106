package nosql

// blockCache is an exact LRU cache over SSTable block identifiers. It
// models Cassandra's file cache (file_cache_size_in_mb): reads that hit
// a cached block avoid the disk seek, and compaction naturally churns
// the cache because merged output lives in new blocks.
//
// Nodes live in one slab and name each other by slab index: a circular
// doubly-linked recency list through the sentinel nodes[0], a freelist
// through next, and an open-addressed index of slab indices (linear
// probing, 0 = empty slot) in place of a map. A touch therefore hashes
// twelve bytes inline and follows no pointer, and Touch/Admit/Remove
// are O(1) without per-op allocation. Each node keeps its id's hash, so
// eviction, back-shift and re-placement never hash again.
type blockCache struct {
	capacity int
	// nodes[0] is the recency list's sentinel: its next is the most and
	// its prev the least recently used node. Every other node is either
	// on that list (and in the index) or on the freelist.
	nodes []cacheNode
	// index is a power of two long and at most half full, so a probe
	// sequence always ends at an empty slot.
	index []int32
	n     int // cached blocks
	// free heads the freelist of recycled nodes (linked through next, 0
	// ends it). Evictions, removals, and invalidations park their nodes
	// here and admissions pop them, so the slab stops growing once the
	// cache has been full and the steady-state miss path never allocates.
	free   int32
	hits   uint64
	misses uint64
}

// minIndexLen is the shortest index a cache starts with.
const minIndexLen = 16

// blockID identifies one block of one SSTable. Table identifiers are
// unique for the lifetime of an engine, so block IDs never collide
// across compaction generations.
type blockID struct {
	table uint64
	block uint32
}

// hash spreads id over 32 bits; the index masks the low ones.
//
//rafiki:hot
func (id blockID) hash() uint32 {
	x := id.table*0x9E3779B97F4A7C15 ^ uint64(id.block)*0xC2B2AE3D27D4EB4F
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	return uint32(x ^ x>>32)
}

// cacheNode is 24 bytes: blockID's fields laid out flat beside the hash
// and the links, so the hash fills what would be blockID's padding.
type cacheNode struct {
	table      uint64
	block      uint32
	hash       uint32 // blockID{table, block}.hash(): the home slot, masked
	prev, next int32
}

// newBlockCache returns a cache holding at most capacity blocks. A zero
// or negative capacity yields a cache that never hits. Slab and index
// are sized for capacity up front (as the map they replace was), so a
// cache only regrows them if Resize raises its capacity.
func newBlockCache(capacity int) *blockCache {
	slots := minIndexLen
	for slots < 2*(capacity+1) {
		slots *= 2
	}
	return &blockCache{
		capacity: capacity,
		nodes:    make([]cacheNode, 1, max(capacity, 0)+2), // sentinel, capacity, one in flight
		index:    make([]int32, slots),
	}
}

// Len returns the number of cached blocks.
func (c *blockCache) Len() int { return c.n }

// HitRate returns the fraction of Touch calls that hit, or 0 before any
// traffic.
func (c *blockCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Touch records an access to id. It returns true on a cache hit; on a
// miss the block is admitted (evicting the LRU block if full).
//
//rafiki:hot
func (c *blockCache) Touch(id blockID) bool {
	h := id.hash()
	slot, n := c.find(id, h)
	if n != 0 {
		c.hits++
		c.moveToFront(n)
		return true
	}
	c.misses++
	if c.capacity > 0 {
		c.insert(id, h, slot)
	}
	return false
}

// Admit inserts id without recording a hit or miss — used when a flush
// writes fresh blocks that land in the page cache for free.
//
//rafiki:hot
func (c *blockCache) Admit(id blockID) {
	if c.capacity <= 0 {
		return
	}
	h := id.hash()
	if slot, n := c.find(id, h); n != 0 {
		c.moveToFront(n)
	} else {
		c.insert(id, h, slot)
	}
}

// Remove drops id from the cache if present (a write invalidating a
// cached row).
//
//rafiki:hot
func (c *blockCache) Remove(id blockID) {
	if slot, n := c.find(id, id.hash()); n != 0 {
		c.drop(slot, n)
	}
}

// InvalidateTable drops every cached block belonging to table. Called
// when compaction deletes an input SSTable.
func (c *blockCache) InvalidateTable(table uint64) {
	for n := c.nodes[0].next; n != 0; {
		next := c.nodes[n].next
		if c.nodes[n].table == table {
			c.evict(n)
		}
		n = next
	}
}

// Resize changes capacity, evicting LRU entries if shrinking.
func (c *blockCache) Resize(capacity int) {
	c.capacity = capacity
	for c.n > max(capacity, 0) {
		c.evict(c.nodes[0].prev)
	}
}

// find probes for id, whose hash is h. It returns id's index slot and
// slab node, or — n == 0 — the empty slot an insert of id would fill.
// A node of another block in the probe run is told apart by its stored
// hash before its id is compared.
//
//rafiki:hot
func (c *blockCache) find(id blockID, h uint32) (slot int, n int32) {
	mask := len(c.index) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		n = c.index[slot]
		if n == 0 {
			return slot, 0
		}
		if nd := &c.nodes[n]; nd.hash == h && nd.table == id.table && nd.block == id.block {
			return slot, n
		}
	}
}

// insert admits id (hash h), absent from the cache, at the empty slot
// find returned for it, as the most recently used block, then evicts the
// least recently used one if that overfills the cache.
//
//rafiki:hot
func (c *blockCache) insert(id blockID, h uint32, slot int) {
	if 2*(c.n+1) > len(c.index) {
		// Double the index and re-place the live nodes from their stored
		// hashes; the recency list names them all. The slab does not move.
		c.index = make([]int32, 2*len(c.index))
		for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
			nd := &c.nodes[n]
			s, _ := c.find(blockID{nd.table, nd.block}, nd.hash)
			c.index[s] = n
		}
		slot, _ = c.find(id, h)
	}
	n := c.free
	if n != 0 {
		c.free = c.nodes[n].next
	} else {
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, cacheNode{})
	}
	c.nodes[n].table, c.nodes[n].block, c.nodes[n].hash = id.table, id.block, h
	c.pushFront(n)
	c.index[slot] = n
	c.n++
	if c.n > c.capacity {
		c.evict(c.nodes[0].prev)
	}
}

// evict drops the cached node n, finding its index slot by walking its
// probe run from the stored home to the slot that names n.
//
//rafiki:hot
func (c *blockCache) evict(n int32) {
	mask := len(c.index) - 1
	slot := int(c.nodes[n].hash) & mask
	for c.index[slot] != n {
		slot = (slot + 1) & mask
	}
	c.drop(slot, n)
}

// drop removes node n, indexed at slot, from the list and the index and
// parks it on the freelist. The index has no deletion marks: the rest
// of n's probe run shifts back over the hole, each entry moving only if
// the hole lies between its home slot and where it sits.
//
//rafiki:hot
func (c *blockCache) drop(slot int, n int32) {
	c.unlink(n)
	c.nodes[n].next = c.free
	c.free = n
	c.n--

	mask := len(c.index) - 1
	hole := slot
	for s := (slot + 1) & mask; c.index[s] != 0; s = (s + 1) & mask {
		home := int(c.nodes[c.index[s]].hash) & mask
		if (s-home)&mask >= (s-hole)&mask {
			c.index[hole] = c.index[s]
			hole = s
		}
	}
	c.index[hole] = 0
}

//rafiki:hot
func (c *blockCache) moveToFront(n int32) {
	if c.nodes[0].next == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// pushFront links n, on no list, in as the most recently used node.
//
//rafiki:hot
func (c *blockCache) pushFront(n int32) {
	head := c.nodes[0].next
	c.nodes[n].prev, c.nodes[n].next = 0, head
	c.nodes[head].prev = n
	c.nodes[0].next = n
}

// unlink takes n out of the recency list; the sentinel makes both
// neighbours always exist.
//
//rafiki:hot
func (c *blockCache) unlink(n int32) {
	prev, next := c.nodes[n].prev, c.nodes[n].next
	c.nodes[prev].next = next
	c.nodes[next].prev = prev
}
