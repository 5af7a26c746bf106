package nosql

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// oracleCache is the block cache as it stood before the slab and the
// open-addressed index: a map from blockID to heap nodes on a pointer
// list, kept verbatim (freelist, chunks and all) as the reference the
// flat cache must be indistinguishable from.
type oracleCache struct {
	capacity int
	entries  map[blockID]*oracleNode
	head     *oracleNode // most recently used
	tail     *oracleNode // least recently used
	hits     uint64
	misses   uint64
	free     *oracleNode
	chunk    []oracleNode
}

const oracleChunkLen = 256

type oracleNode struct {
	id         blockID
	prev, next *oracleNode
}

func newOracleCache(capacity int) *oracleCache {
	return &oracleCache{
		capacity: capacity,
		entries:  make(map[blockID]*oracleNode, max(capacity, 1)),
	}
}

func (c *oracleCache) Len() int { return len(c.entries) }

func (c *oracleCache) Touch(id blockID) bool {
	if n, ok := c.entries[id]; ok {
		c.hits++
		c.moveToFront(n)
		return true
	}
	c.misses++
	if c.capacity <= 0 {
		return false
	}
	n := c.newNode(id)
	c.entries[id] = n
	c.pushFront(n)
	if len(c.entries) > c.capacity {
		c.evict()
	}
	return false
}

func (c *oracleCache) Admit(id blockID) {
	if c.capacity <= 0 {
		return
	}
	if n, ok := c.entries[id]; ok {
		c.moveToFront(n)
		return
	}
	n := c.newNode(id)
	c.entries[id] = n
	c.pushFront(n)
	if len(c.entries) > c.capacity {
		c.evict()
	}
}

func (c *oracleCache) Remove(id blockID) {
	if n, ok := c.entries[id]; ok {
		c.unlink(n)
		delete(c.entries, id)
		c.recycle(n)
	}
}

func (c *oracleCache) InvalidateTable(table uint64) {
	for id, n := range c.entries {
		if id.table == table {
			c.unlink(n)
			delete(c.entries, id)
			c.recycle(n)
		}
	}
}

func (c *oracleCache) Resize(capacity int) {
	c.capacity = capacity
	for len(c.entries) > max(capacity, 0) {
		c.evict()
	}
}

func (c *oracleCache) evict() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.entries, victim.id)
	c.recycle(victim)
}

func (c *oracleCache) newNode(id blockID) *oracleNode {
	if n := c.free; n != nil {
		c.free = n.next
		n.id = id
		n.next = nil
		return n
	}
	if len(c.chunk) == 0 {
		c.chunk = make([]oracleNode, oracleChunkLen)
	}
	n := &c.chunk[0]
	c.chunk = c.chunk[1:]
	n.id = id
	return n
}

func (c *oracleCache) recycle(n *oracleNode) {
	n.next = c.free
	n.prev = nil
	c.free = n
}

func (c *oracleCache) pushFront(n *oracleNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *oracleCache) moveToFront(n *oracleNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *oracleCache) unlink(n *oracleNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if c.head == n {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if c.tail == n {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// order lists the oracle's blocks from most to least recently used.
func (c *oracleCache) order() []blockID {
	var ids []blockID
	for n := c.head; n != nil; n = n.next {
		ids = append(ids, n.id)
	}
	return ids
}

// idOf returns the block node n caches.
func (c *blockCache) idOf(n int32) blockID {
	return blockID{table: c.nodes[n].table, block: c.nodes[n].block}
}

// lookup probes for id the way Touch does.
func (c *blockCache) lookup(id blockID) (slot int, n int32) { return c.find(id, id.hash()) }

// order lists the cache's blocks from most to least recently used.
func (c *blockCache) order() []blockID {
	var ids []blockID
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		ids = append(ids, c.idOf(n))
	}
	return ids
}

// checkStructure verifies what the flat cache's parts promise each
// other: the list is consistent in both directions, every listed node
// keeps its id's hash and sits in the index where a probe finds it, the
// index holds nothing else and stays at most half full, and every slab
// node is the sentinel, listed, or free.
func (c *blockCache) checkStructure() error {
	listed := 0
	for prev, n := int32(0), c.nodes[0].next; n != 0; prev, n = n, c.nodes[n].next {
		if c.nodes[n].prev != prev {
			return fmt.Errorf("node %d: prev = %d, want %d", n, c.nodes[n].prev, prev)
		}
		id := c.idOf(n)
		if c.nodes[n].hash != id.hash() {
			return fmt.Errorf("node %d (%v) keeps hash %#x, want %#x", n, id, c.nodes[n].hash, id.hash())
		}
		if _, got := c.lookup(id); got != n {
			return fmt.Errorf("node %d (%v) is listed but a probe finds node %d", n, id, got)
		}
		if listed++; listed > len(c.nodes) {
			return fmt.Errorf("recency list does not end")
		}
		if c.nodes[n].next == 0 && c.nodes[0].prev != n {
			return fmt.Errorf("sentinel's prev = %d, want the last node %d", c.nodes[0].prev, n)
		}
	}
	if listed != c.n {
		return fmt.Errorf("%d nodes listed, n = %d", listed, c.n)
	}
	if listed == 0 && c.nodes[0].prev != 0 {
		return fmt.Errorf("empty list but sentinel's prev = %d", c.nodes[0].prev)
	}
	indexed := 0
	for _, n := range c.index {
		if n != 0 {
			indexed++
		}
	}
	if indexed != c.n {
		return fmt.Errorf("%d slots indexed, n = %d", indexed, c.n)
	}
	if k := len(c.index); k&(k-1) != 0 || 2*c.n > k {
		return fmt.Errorf("index of %d slots for %d nodes: want a power of two, at most half full", k, c.n)
	}
	free := 0
	for f := c.free; f != 0; f = c.nodes[f].next {
		if free++; free > len(c.nodes) {
			return fmt.Errorf("freelist does not end")
		}
	}
	if listed+free+1 != len(c.nodes) {
		return fmt.Errorf("%d listed + %d free + sentinel != %d slab nodes", listed, free, len(c.nodes))
	}
	return nil
}

// collidingIDs returns n block ids whose hashes agree with one of a few
// adjacent home slots — the last two and the first — in every index of
// up to 256 slots, so they pile into probe runs that wrap around the
// end of the index and every removal has a run to shift back.
func collidingIDs(n int) []blockID {
	var ids []blockID
	for t := uint64(0); len(ids) < n; t++ {
		for b := uint32(0); b < 64 && len(ids) < n; b++ {
			id := blockID{table: t % 7, block: b + 64*uint32(t/7)}
			if h := id.hash() & 255; h >= 254 || h == 0 {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestBlockCacheMatchesOracle drives the flat cache and the map+pointer
// cache it replaced through the same seeded random schedules and
// requires them indistinguishable after every step: return values, Len,
// hit and miss counts, and the whole MRU→LRU order. The mixed schedules
// weigh every operation alike; the churn schedules keep a small cache
// evicting on most touches over a wide pool while whole tables are
// invalidated and the capacity jumps past the index's half-full mark,
// so evictions and back-shifts run on entries the index re-placed.
func TestBlockCacheMatchesOracle(t *testing.T) {
	pools := map[string][]blockID{
		"colliding": collidingIDs(96),
	}
	for tb := uint64(0); tb < 5; tb++ {
		for b := uint32(0); b < 12; b++ {
			pools["blocks"] = append(pools["blocks"], blockID{table: tb, block: b})
		}
	}
	for k := uint64(0); k < 300; k++ { // the row cache's shape: the key in table, block 0
		pools["rows"] = append(pools["rows"], blockID{table: k * 31})
	}
	for tb := uint64(0); tb < 16; tb++ {
		for b := uint32(0); b < 128; b++ {
			pools["wide"] = append(pools["wide"], blockID{table: tb, block: b * 7})
		}
	}
	poolNames := []string{"colliding", "blocks", "rows"}
	capacities := []int{0, 1, 2, 3, 7, 40, 200, -1}

	// Cumulative percentages of Touch, Admit, Remove and InvalidateTable;
	// the rest of the draws resize.
	type mix struct{ touch, admit, remove, invalidate int }
	const schedules, churnSchedules, steps = 240, 60, 400
	var doublings, evictions int
	for seed := int64(0); seed < schedules+churnSchedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		poolName := poolNames[seed%int64(len(poolNames))]
		capacity := capacities[rng.Intn(len(capacities))]
		ops := mix{50, 70, 85, 90}
		churn := seed >= schedules
		if churn {
			poolName = []string{"wide", "colliding"}[seed%2]
			capacity = []int{1, 3, 8, 24}[rng.Intn(4)]
			ops = mix{80, 84, 88, 94}
		}
		pool := pools[poolName]
		c, o := newBlockCache(capacity), newOracleCache(capacity)
		fail := func(step int, op, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (%s, capacity %d) step %d %s: %s", seed, poolName, c.capacity, step, op, fmt.Sprintf(format, args...))
		}
		for step := 0; step < steps; step++ {
			id := pool[rng.Intn(len(pool))]
			indexLen, full := len(c.index), c.Len() == c.capacity
			var op string
			switch r := rng.Intn(100); {
			case r < ops.touch:
				op = fmt.Sprintf("Touch(%v)", id)
				got, want := c.Touch(id), o.Touch(id)
				if got != want {
					fail(step, op, "= %v, oracle %v", got, want)
				}
				if !got && full && c.capacity > 0 {
					evictions++
				}
			case r < ops.admit:
				op = fmt.Sprintf("Admit(%v)", id)
				c.Admit(id)
				o.Admit(id)
			case r < ops.remove:
				op = fmt.Sprintf("Remove(%v)", id)
				c.Remove(id)
				o.Remove(id)
			case r < ops.invalidate:
				op = fmt.Sprintf("InvalidateTable(%d)", id.table)
				c.InvalidateTable(id.table)
				o.InvalidateTable(id.table)
			case churn:
				// Jump up two- to fourfold, or fall back to a handful.
				capacity := c.capacity*(2+rng.Intn(3)) + 1
				if rng.Intn(3) == 0 {
					capacity = 1 + rng.Intn(8)
				}
				op = fmt.Sprintf("Resize(%d)", capacity)
				c.Resize(capacity)
				o.Resize(capacity)
			default:
				// Grow or shrink, sometimes by a lot, sometimes to nothing.
				capacity := capacities[rng.Intn(len(capacities))]
				if rng.Intn(2) == 0 {
					capacity = c.capacity + rng.Intn(9) - 4
				}
				op = fmt.Sprintf("Resize(%d)", capacity)
				c.Resize(capacity)
				o.Resize(capacity)
			}
			if churn && len(c.index) > indexLen {
				doublings++
			}
			if c.Len() != o.Len() {
				fail(step, op, "Len = %d, oracle %d", c.Len(), o.Len())
			}
			if c.hits != o.hits || c.misses != o.misses {
				fail(step, op, "hits/misses = %d/%d, oracle %d/%d", c.hits, c.misses, o.hits, o.misses)
			}
			if got, want := c.order(), o.order(); !slices.Equal(got, want) {
				fail(step, op, "MRU→LRU order\n got  %v\n want %v", got, want)
			}
			if err := c.checkStructure(); err != nil {
				fail(step, op, "%v", err)
			}
		}
	}
	if doublings == 0 || evictions < churnSchedules*steps/4 {
		t.Errorf("churn schedules doubled the index %d times and evicted on %d touches: too tame", doublings, evictions)
	}
}

// parentDrain is Drain over a plain cell map, as it stood before the
// memtable's key order was kept anywhere: range the map, sort keys and
// tombstones, collect expiries.
func parentDrain(cells map[uint64]memCell) (keys, tombstones []uint64, expiries map[uint64]float64) {
	for k, c := range cells {
		keys = append(keys, k)
		if c.tomb {
			tombstones = append(tombstones, k)
		} else if c.expiry > 0 {
			if expiries == nil {
				expiries = make(map[uint64]float64)
			}
			expiries[k] = c.expiry
		}
	}
	slices.Sort(keys)
	slices.Sort(tombstones)
	return keys, tombstones, expiries
}

// TestMemtableOrderedRunProperty drives a memtable and a plain cell map
// through the same seeded random Insert/Tombstone/seek/Drain
// interleavings, over keys of every kind the bitmap treats differently:
// a small key space, a frontier that keeps growing the bitmap, keys
// either side of memCeiling, and far keys past it. After every step the
// touched key's Contains, Cell and IsTombstone and the memtable's Len
// must match the map; a walk of the scan cursor must list exactly the
// sorted key set, and every drain must equal the map's.
func TestMemtableOrderedRunProperty(t *testing.T) {
	const schedules, steps = 200, 300
	for seed := int64(0); seed < schedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keySpace := []int64{8, 64, 4096}[seed%3]
		frontier := uint64(keySpace)
		pick := func() uint64 {
			switch r := rng.Intn(10); {
			case r < 6:
				return uint64(rng.Int63n(keySpace))
			case r < 8:
				frontier += uint64(rng.Intn(300))
				return frontier
			case r < 9 && seed%4 == 0:
				return memCeiling - 32 + uint64(rng.Intn(64))
			default:
				return 1<<40 + uint64(rng.Intn(64))
			}
		}
		m := newMemtable(1024)
		model := make(map[uint64]memCell)
		for step := 0; step < steps; step++ {
			key := pick()
			switch r := rng.Intn(100); {
			case r < 55:
				var expiry float64
				if rng.Intn(3) == 0 {
					expiry = 1 + rng.Float64()
				}
				m.Insert(key, expiry, 1024)
				model[key] = memCell{expiry: expiry}
			case r < 75:
				m.Tombstone(key)
				model[key] = memCell{tomb: true}
			case r < 95:
				want := slices.Sorted(maps.Keys(model))
				var got []uint64
				for k, ok := m.seek(0); ok; k, ok = m.seek(k + 1) {
					got = append(got, k)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: cursor walk\n got  %v\n want %v", seed, step, got, want)
				}
				i := seekGE(want, key)
				if k, ok := m.seek(key); ok != (i < len(want)) || (ok && k != want[i]) {
					t.Fatalf("seed %d step %d: seek(%d) = %d, %v", seed, step, key, k, ok)
				}
			default:
				wantKeys, wantTombs, wantExp := parentDrain(model)
				clear(model)
				keys, tombs, exp := m.Drain()
				if !slices.Equal(keys, wantKeys) || !slices.Equal(tombs, wantTombs) {
					t.Fatalf("seed %d step %d: Drain keys %v tombs %v, the map's %v / %v", seed, step, keys, tombs, wantKeys, wantTombs)
				}
				if (exp == nil) != (wantExp == nil) || !maps.Equal(exp, wantExp) {
					t.Fatalf("seed %d step %d: Drain expiries %v, the map's %v", seed, step, exp, wantExp)
				}
				if m.Bytes() != 0 {
					t.Fatalf("seed %d step %d: %v bytes after Drain", seed, step, m.Bytes())
				}
			}
			for _, k := range []uint64{key, key + 1} {
				want, held := model[k]
				if c, ok := m.Cell(k); c != want || ok != held || m.Contains(k) != held || m.IsTombstone(k) != want.tomb {
					t.Fatalf("seed %d step %d: key %d: Cell %+v %v, Contains %v; the map's %+v %v", seed, step, k, c, ok, m.Contains(k), want, held)
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, m.Len(), len(model))
			}
		}
	}
}
