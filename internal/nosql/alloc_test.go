package nosql

import (
	"math/rand"
	"runtime"
	"testing"

	"rafiki/internal/config"
)

// TestOpAllocGuard pins the steady-state point-op path's allocation
// budget, the per-op analogue of TestScanAllocGuard: once the engine
// is warm (block-cache slab and index grown, memtable map grown, first
// flush generation digested), a mixed read/update/delete stream must
// average well under a tenth of an allocation per operation. Before
// the freelist/scratch-reuse pass this path ran at ~0.55 allocs/op —
// a per-Touch *cacheNode plus per-flush planner maps — so the 0.1
// ceiling fails loudly on any regression to per-op allocation while
// leaving headroom for amortized growth (map rehashes, epoch-series
// doubling, background SSTable churn).
func TestOpAllocGuard(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(3)
	rng := rand.New(rand.NewSource(11))
	n := int64(e.KeySpace())
	mixed := func(i int, k uint64) {
		switch i % 4 {
		case 0, 1:
			e.Read(k)
		case 2:
			e.Write(k)
		case 3:
			e.Delete(k)
		}
	}
	for i := 0; i < 50_000; i++ {
		mixed(i, uint64(rng.Int63n(n)))
	}
	e.FinishEpoch()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const ops = 50_000
	for i := 0; i < ops; i++ {
		mixed(i, uint64(rng.Int63n(n)))
	}
	e.FinishEpoch()
	runtime.ReadMemStats(&m1)

	perOp := float64(m1.Mallocs-m0.Mallocs) / ops
	if perOp > 0.1 {
		t.Fatalf("steady-state point ops allocate %.3f/op, want <= 0.1", perOp)
	}
}

// fillMemtable puts n distinct keys (every third key from 0) straight
// into the memtable, bypassing the write path's own flush trigger.
func fillMemtable(e *Engine, n int) {
	for k := 0; k < n; k++ {
		e.mem.Insert(uint64(3*k), 0, float64(e.hw.RowBytes))
	}
}

// TestFlushAllocGuard pins the flush path's allocation budget: a flush
// allocates the table's fixed parts — the table, its run, the Bloom
// filter and its bits, the presence bitmap, the background task — and
// nothing per key (10 to 12 measured). With the per-table hash map the
// count grew with the table — 26 at 1k keys, 163 at 32k — because map
// groups scale with the key count; the ceiling leaves room only for
// amortized growth of the engine's queues and the cache's slab and index.
func TestFlushAllocGuard(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 15} {
		e, err := New(Options{Space: config.Cassandra(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Warm: grow the memtable map and Drain's scratch to this size.
		fillMemtable(e, n)
		e.flush(false)
		fillMemtable(e, n)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e.flush(false)
		runtime.ReadMemStats(&m1)
		if e.Metrics().Flushes != 2 || e.tables.tables[1].Len() != n {
			t.Fatalf("n=%d: %d flushes, second table holds %d keys", n, e.Metrics().Flushes, e.tables.tables[1].Len())
		}
		if got := m1.Mallocs - m0.Mallocs; got > 16 {
			t.Errorf("flush of %d keys made %d allocations, want <= 16", n, got)
		}
	}
}
