package nosql

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rafiki/internal/config"
)

// runOf returns n distinct ascending keys drawn from [lo, lo+span).
func runOf(rng *rand.Rand, n int, lo, span uint64) []uint64 {
	set := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := lo + uint64(rng.Int63n(int64(span)))
		if _, dup := set[k]; !dup {
			set[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// checkDerived verifies everything index derives from the run: range,
// block span, a Bloom filter with no false negatives, and a Contains
// that agrees with membership in sorted for every key of the run and a
// band of non-members in and around it.
func checkDerived(t *testing.T, tb *ssTable, keySpace int) {
	t.Helper()
	if !slices.IsSorted(tb.sorted) || len(slices.Compact(slices.Clone(tb.sorted))) != len(tb.sorted) {
		t.Fatalf("run is not ascending and distinct: %v", tb.sorted)
	}
	if tb.Len() != len(tb.sorted) {
		t.Errorf("Len = %d, run holds %d", tb.Len(), len(tb.sorted))
	}
	physBlocks := max((len(tb.sorted)+tb.keysPerBlock-1)/tb.keysPerBlock, 1)
	if want := uint64(max(keySpace/physBlocks, 1)); tb.blockSpan != want {
		t.Errorf("blockSpan = %d, want %d", tb.blockSpan, want)
	}
	if len(tb.sorted) == 0 {
		if tb.minKey != 0 || tb.maxKey != 0 || tb.present != nil || tb.Contains(0) {
			t.Errorf("empty table: min=%d max=%d present=%v Contains(0)=%v", tb.minKey, tb.maxKey, tb.present, tb.Contains(0))
		}
		return
	}
	first, last := tb.sorted[0], tb.sorted[len(tb.sorted)-1]
	if tb.minKey != first || tb.maxKey != last {
		t.Errorf("range = [%d, %d], run spans [%d, %d]", tb.minKey, tb.maxKey, first, last)
	}
	if dense := last-first < 64*uint64(len(tb.sorted)); dense != (tb.present != nil) {
		t.Errorf("dense = %v but bitmap present = %v", dense, tb.present != nil)
	}
	if len(tb.present) > len(tb.sorted) {
		t.Errorf("bitmap (%d words) outweighs the run (%d keys)", len(tb.present), len(tb.sorted))
	}
	member := make(map[uint64]bool, len(tb.sorted))
	for _, k := range tb.sorted {
		member[k] = true
		if !tb.MayContainHashed(hash2(k)) {
			t.Errorf("bloom lost key %d", k)
		}
	}
	probe := func(k uint64) {
		if got := tb.Contains(k); got != member[k] {
			t.Errorf("Contains(%d) = %v, run membership %v (bitmap=%v)", k, got, member[k], tb.present != nil)
		}
	}
	for _, k := range tb.sorted {
		probe(k)
		probe(k - 1)
		probe(k + 1)
	}
	probe(0)
	probe(first - 70)
	probe(last + 70)
	probe(^uint64(0))
}

// mergeOracle is the reference merge the k-way merge is held to: per
// key the cell of the highest-seq table, the earliest input on a tie —
// resolved through a hash map, with no use of the inputs' order.
func mergeOracle(tables []*ssTable) (keys []uint64, tombs map[uint64]struct{}, expiry map[uint64]float64) {
	newest := make(map[uint64]*ssTable)
	for _, t := range tables {
		for _, k := range t.sorted {
			if cur, ok := newest[k]; !ok || t.seq > cur.seq {
				newest[k] = t
			}
		}
	}
	tombs = make(map[uint64]struct{})
	expiry = make(map[uint64]float64)
	for k, src := range newest {
		keys = append(keys, k)
		if _, dead := src.tombs[k]; dead {
			tombs[k] = struct{}{}
		} else if exp := src.expiry[k]; exp > 0 {
			expiry[k] = exp
		}
	}
	slices.Sort(keys)
	return keys, tombs, expiry
}

func TestMergeTablesMatchesMapOracle(t *testing.T) {
	const keySpace = 4096
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tables []*ssTable
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			// Overlapping ranges, some empty tables, and seqs drawn from
			// a range narrower than the table count so ties are common.
			lo, span := uint64(rng.Intn(300)), uint64(1+rng.Intn(400))
			tb := newSSTable(uint64(i+1), runOf(rng, rng.Intn(int(min(span, 120))+1), lo, span), 1024, 4, keySpace)
			tb.seq = uint64(1 + rng.Intn(3))
			for _, k := range tb.sorted {
				switch rng.Intn(4) {
				case 0:
					tb.setTombstone(k)
				case 1:
					tb.markExpiries(map[uint64]float64{k: 1 + rng.Float64()})
				}
			}
			tables = append(tables, tb)
		}
		wantKeys, wantTombs, wantExpiry := mergeOracle(tables)
		out := mergeTables(99, tables, 2, 1024, 4, keySpace)
		if !slices.Equal(out.sorted, wantKeys) {
			t.Fatalf("seed %d: merged run %v, oracle %v", seed, out.sorted, wantKeys)
		}
		if cap(out.sorted) != len(out.sorted) {
			t.Fatalf("seed %d: merged run of %d keys holds capacity %d", seed, len(out.sorted), cap(out.sorted))
		}
		if !maps.Equal(out.tombs, wantTombs) {
			t.Fatalf("seed %d: merged tombstones %v, oracle %v", seed, out.tombs, wantTombs)
		}
		if !maps.Equal(out.expiry, wantExpiry) {
			t.Fatalf("seed %d: merged expiries %v, oracle %v", seed, out.expiry, wantExpiry)
		}
		var maxSeq uint64
		for _, tb := range tables {
			if tb.seq > maxSeq {
				maxSeq = tb.seq
			}
		}
		if out.id != 99 || out.level != 2 || out.seq != maxSeq {
			t.Fatalf("seed %d: id=%d level=%d seq=%d, want 99/2/%d", seed, out.id, out.level, out.seq, maxSeq)
		}
		checkDerived(t, out, keySpace)
	}
}

// TestContainsMatchesRun holds Contains to membership in sorted on both
// probe paths — the presence bitmap of a dense run and the binary
// search of a sparse one — including at the density threshold, on a
// one-key and an empty table, and after dropCell + rebuild.
func TestContainsMatchesRun(t *testing.T) {
	const keySpace = 1 << 20
	rng := rand.New(rand.NewSource(3))
	cases := map[string][]uint64{
		"empty":       {},
		"single":      {41},
		"contiguous":  runOf(rng, 500, 1000, 500),
		"dense":       runOf(rng, 500, 1000, 4000),
		"sparse":      runOf(rng, 50, 1000, 1<<19),
		"at-limit":    {10, 10 + 2*64 - 1}, // span 128 = 64 x 2: the last dense shape
		"past-limit":  {10, 10 + 2*64},     // span 129: the first sparse one
		"from-zero":   {0, 1, 2, 200},
		"to-max":      {^uint64(0) - 3, ^uint64(0) - 1, ^uint64(0)},
		"whole-range": {0, ^uint64(0)},
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) {
			tb := newSSTable(1, slices.Clone(keys), 1024, 4, keySpace)
			checkDerived(t, tb, keySpace)
			if len(keys) < 2 {
				return
			}
			// Evict every third cell (tombstones, as compaction does) in
			// an order unrelated to the run's; rebuild must filter the
			// run and re-derive everything, possibly switching probe path.
			var evict []uint64
			for i, k := range keys {
				if i%3 == 0 {
					tb.setTombstone(k)
					evict = append(evict, k)
				}
			}
			rng.Shuffle(len(evict), func(i, j int) { evict[i], evict[j] = evict[j], evict[i] })
			for _, k := range evict {
				tb.dropCell(k)
			}
			tb.rebuild(keySpace)
			want := slices.DeleteFunc(slices.Clone(keys), func(k uint64) bool { return slices.Contains(evict, k) })
			if !slices.Equal(tb.sorted, want) {
				t.Fatalf("after rebuild run = %v, want %v", tb.sorted, want)
			}
			if len(tb.tombs) != 0 || len(tb.dropped) != 0 {
				t.Errorf("rebuild left %d tombstones, %d pending drops", len(tb.tombs), len(tb.dropped))
			}
			for _, k := range evict {
				if tb.Contains(k) {
					t.Errorf("evicted key %d still present", k)
				}
			}
			checkDerived(t, tb, keySpace)
		})
	}
}

// TestSparseTableAllocatesByLen is the case the binary-search fallback
// exists for: a handful of keys near 1<<62 must cost O(len) memory, not
// a bitmap over [minKey, maxKey].
func TestSparseTableAllocatesByLen(t *testing.T) {
	keys := []uint64{3, 1 << 40, 1<<62 - 5, 1 << 62, 1<<62 + 9}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tb := newSSTable(1, keys, 1024, 4, 1000)
	runtime.ReadMemStats(&m1)
	if tb.present != nil {
		t.Fatalf("sparse table built a %d-word bitmap", len(tb.present))
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4096 {
		t.Errorf("5-key table allocated %d bytes", got)
	}
	checkDerived(t, tb, 1000)
}

func TestNewSSTableRejectsUnsortedOrDuplicate(t *testing.T) {
	for name, keys := range map[string][]uint64{
		"descending":     {3, 2, 1},
		"dip":            {1, 5, 3, 9},
		"peak":           {1, 5000, 3},
		"duplicate":      {1, 2, 2, 3},
		"duplicate-tail": {1, 2, 3, 3},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("newSSTable accepted %v", keys)
				}
			}()
			newSSTable(1, keys, 1024, 4, 100)
		})
	}
}

// TestPreloadGenerations pins Preload's size-tiered generations to
// their definition — generation g holds every key k with
// (k*2654435761 + 97g) mod 4^g == 0 — which Preload enumerates by
// stepping through the one matching residue class.
func TestPreloadGenerations(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const versions = 6
	e.Preload(versions)
	n := uint64(e.KeySpace())
	if got := e.tables.Len(); got != versions+1 {
		t.Fatalf("%d tables, want %d", got, versions+1)
	}
	for g, tb := range e.tables.tables {
		var want []uint64
		stride := uint64(1) << uint(2*g)
		for k := uint64(0); k < n; k++ {
			if g == 0 || (k*2654435761+uint64(g)*97)%stride == 0 {
				want = append(want, k)
			}
		}
		if !slices.Equal(tb.sorted, want) {
			t.Errorf("generation %d: %d keys, want %d", g, len(tb.sorted), len(want))
		}
		if cap(tb.sorted) != len(tb.sorted) {
			t.Errorf("generation %d: run of %d keys built at capacity %d", g, len(tb.sorted), cap(tb.sorted))
		}
		if tb.id != uint64(g+1) {
			t.Errorf("generation %d: table id %d", g, tb.id)
		}
	}
}

// benchRuns builds k overlapping runs of n keys each over a key space
// of 2n, the shape a size-tiered bucket has when it merges.
func benchRuns(k, n int) []*ssTable {
	rng := rand.New(rand.NewSource(1))
	tables := make([]*ssTable, k)
	for i := range tables {
		tables[i] = newSSTable(uint64(i+1), runOf(rng, n, 0, uint64(2*n)), 1024, 64, 2*n)
	}
	return tables
}

var benchTable *ssTable

func BenchmarkMergeTables(b *testing.B) {
	for _, k := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("tables=%d", k), func(b *testing.B) {
			tables := benchRuns(k, 20_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTable = mergeTables(99, tables, 0, 1024, 64, 40_000)
			}
		})
	}
}

// BenchmarkPreload times a fresh engine's Preload(3): the cold rows empty
// the preload image first, so every run, filter and bitmap is built; the
// warm rows find the image held by an earlier engine and only make table
// headers — what every node of a cluster after the first, and every
// collector sample after the first, pays.
func BenchmarkPreload(b *testing.B) {
	for _, strategy := range []float64{config.CompactionSizeTiered, config.CompactionLeveled} {
		for _, cache := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("strategy=%v/%s", strategy, cache), func(b *testing.B) {
				build := func() *Engine {
					e, err := New(Options{Space: config.Cassandra(), Config: config.Config{config.ParamCompactionStrategy: strategy}, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					e.Preload(3)
					return e
				}
				holder := build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cache == "cold" {
						resetPreloadImage()
					}
					build()
				}
				runtime.KeepAlive(holder)
			})
		}
	}
}

// BenchmarkCloseEpochPerOp times a read on an engine that closes an
// epoch per operation, as every node behind the front door does; B/op is
// what the epoch series costs per operation.
func BenchmarkCloseEpochPerOp(b *testing.B) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 1, EpochOps: 1})
	if err != nil {
		b.Fatal(err)
	}
	e.Preload(1)
	rng := rand.New(rand.NewSource(2))
	n := int64(e.KeySpace())
	for i := 0; i < 50_000; i++ {
		e.Read(uint64(rng.Int63n(n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Read(uint64(rng.Int63n(n)))
	}
}

// BenchmarkFlush times one memtable flush of 8192 distinct keys: Drain,
// the table build, and the flush bookkeeping. Refilling the memtable is
// outside the timer, and so is forgetting the previous flush's table,
// which keeps compaction planning (and its merges) out of the number.
func BenchmarkFlush(b *testing.B) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.tables.tables, e.flushQ = e.tables.tables[:0], e.flushQ[:0]
		fillMemtable(e, 8192)
		b.StartTimer()
		e.flush(false)
	}
}
