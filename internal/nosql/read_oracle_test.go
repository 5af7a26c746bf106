package nosql

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rafiki/internal/config"
)

// oracleRead is Engine.Read as it stood while every table's Bloom filter
// was probed before its run: a pass is a false positive unless the table
// holds the key. Kept verbatim as the reference TestReadBitIdentical
// holds the engine's point read to.
func oracleRead(e *Engine, key uint64) {
	e.ep.reads++
	e.ep.ops++
	e.m.Reads++
	cpu := e.model.ReadCPUSeconds

	if e.rowCache.capacity > 0 && e.rowCache.Touch(blockID{table: key}) {
		e.m.RowCacheHits++
		e.ep.readCPU += cpu * 0.25
		if e.ep.ops >= e.epochOps {
			e.closeEpoch()
		}
		return
	}
	if e.mem.Contains(key) {
		e.m.MemtableHits++
	}

	keyCacheHit := e.keyCacheHitProb()
	indexCPU := e.model.IndexCPUSeconds * (64 / math.Max(e.p.columnIndexKB, 32))
	h1, h2 := hash2(key)
	for _, t := range e.tables.tables {
		cpu += e.model.BloomCheckCPUSeconds
		e.m.BloomChecks++
		if !t.MayContainHashed(h1, h2) {
			continue
		}
		contains := t.Contains(key)
		if !contains {
			e.m.BloomFalsePositives++
		}
		cpu += indexCPU * (1 - keyCacheHit)
		block := t.BlockFor(key)
		if e.fileCache.Touch(block) {
			e.m.FileCacheHits++
		} else {
			e.m.DiskBlockReads++
			e.ep.readMissBlocks++
		}
	}
	e.ep.readCPU += cpu
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
}

// readPathCases are the engines TestReadBitIdentical drives: the two
// compaction strategies, the row cache, and a degraded node, each with
// memtables that flush a few thousand keys (dense tables: a presence
// bitmap answers Contains), and memtables small enough that flushes
// yield sparse tables (no bitmap: Contains binary-searches the run).
var readPathCases = []struct {
	name  string
	space *config.Space
	cfg   config.Config
	tax   bool
}{
	{"size-tiered", config.Cassandra(), config.Config{config.ParamMemtableCleanup: 0.05}, false},
	{"leveled", config.Cassandra(), config.Config{config.ParamMemtableCleanup: 0.05, config.ParamCompactionStrategy: config.CompactionLeveled}, false},
	{"row-cache", config.Cassandra(), config.Config{config.ParamMemtableCleanup: 0.05, config.ParamRowCacheSize: 256}, false},
	{"degraded", config.Cassandra(), config.Config{config.ParamMemtableCleanup: 0.05}, true},
	{"sparse", config.Cassandra(), config.Config{
		config.ParamMemtableHeapSpace:    256,
		config.ParamMemtableOffheapSpace: 256,
		config.ParamMemtableCleanup:      0.05,
	}, false},
}

// TestReadBitIdentical drives two engines built from one seed through
// the same random CRUD, scan and TTL stream — one reads through
// Engine.Read, the other through oracleRead — and requires identical
// virtual-clock bits, epoch accumulators and Metrics counters after
// every op, and identical epoch series and file-cache recency at the
// end. Halfway through, a reconfiguration quadruples the file cache, so
// its index doubles under live traffic; later an idle stretch lets the
// pending merges land. Counting a false positive for a key the table
// holds, skipping the filter for a table that does not, or fetching no
// block for a held key each fail here within a few ops.
func TestReadBitIdentical(t *testing.T) {
	ops := 60_000
	if testing.Short() {
		ops = 15_000
	}
	var denseHeld, sparseHeld, sparseProbed int
	var falsePositives, rowHits, evicted uint64
	for ci, tc := range readPathCases {
		engines := [2]*Engine{}
		for i := range engines {
			e, err := New(Options{Space: tc.space, Config: tc.cfg, Seed: int64(40 + ci), EpochOps: 128})
			if err != nil {
				t.Fatal(err)
			}
			e.Preload(3)
			if tc.tax {
				e.SetDegradation(2.5, 1.75)
			}
			engines[i] = e
		}
		got, want := engines[0], engines[1]
		n := uint64(got.KeySpace())
		frontier := n
		rng := rand.New(rand.NewSource(int64(ci)))
		key := func() uint64 {
			if rng.Intn(2) == 0 {
				return uint64(rng.Intn(512)) * 97 % n // a hot set the row cache can hold
			}
			return uint64(rng.Int63n(int64(frontier)))
		}
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				cfg := maps.Clone(tc.cfg)
				cfg[config.ParamFileCacheSize] = 2048
				for _, e := range engines {
					if err := e.Apply(cfg); err != nil {
						t.Fatal(err)
					}
				}
			}
			if op == 3*ops/4 {
				// An idle stretch lets the long merges (the preload's)
				// land and install their outputs.
				for _, e := range engines {
					e.FinishEpoch()
					e.DrainBackground(30)
				}
			}
			var what string
			switch r := rng.Intn(100); {
			case r < 50:
				k := key()
				what = "read"
				for _, tab := range got.tables.tables {
					switch held := tab.Contains(k); {
					case held && tab.bitmap() != nil:
						denseHeld++
					case held:
						sparseHeld++
					}
					if tab.bitmap() == nil {
						sparseProbed++
					}
				}
				got.Read(k)
				oracleRead(want, k)
			case r < 70:
				k := key()
				what = "update"
				for _, e := range engines {
					e.Write(k)
				}
			case r < 78:
				k, ttl := key(), 0.05+rng.Float64()
				what = "ttl write"
				for _, e := range engines {
					e.WriteTTL(k, ttl)
				}
			case r < 86:
				what = "insert"
				for _, e := range engines {
					e.Write(frontier)
				}
				frontier++
			case r < 94:
				k := key()
				what = "delete"
				for _, e := range engines {
					e.Delete(k)
				}
			case r < 99:
				k, limit := key(), 1+rng.Intn(64)
				what = "scan"
				if a, b := got.Scan(k, limit), want.Scan(k, limit); a != b {
					t.Fatalf("%s op %d: scan rows %d, oracle engine %d", tc.name, op, a, b)
				}
			default:
				what = "drain"
				for _, e := range engines {
					e.FinishEpoch()
					e.DrainBackground(0.01)
				}
			}
			if math.Float64bits(got.Clock()) != math.Float64bits(want.Clock()) {
				t.Fatalf("%s op %d (%s): clock %v, oracle %v", tc.name, op, what, got.Clock(), want.Clock())
			}
			if got.ep != want.ep {
				t.Fatalf("%s op %d (%s): epoch accumulator\n got  %+v\n want %+v", tc.name, op, what, got.ep, want.ep)
			}
			if !reflect.DeepEqual(*got.m, *want.m) {
				t.Fatalf("%s op %d (%s): metrics\n got  %+v\n want %+v", tc.name, op, what, *got.m, *want.m)
			}
		}
		for _, e := range engines {
			e.FinishEpoch()
		}
		gm, wm := got.Metrics(), want.Metrics()
		if !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: final metrics differ\n got  %+v\n want %+v", tc.name, gm, wm)
		}
		if !slices.Equal(got.fileCache.order(), want.fileCache.order()) {
			t.Fatalf("%s: file cache recency differs", tc.name)
		}
		if gm.Compactions == 0 || gm.Flushes == 0 {
			t.Errorf("%s: %d flushes, %d compactions: the stream never reshaped the tables", tc.name, gm.Flushes, gm.Compactions)
		}
		falsePositives += gm.BloomFalsePositives
		rowHits += gm.RowCacheHits
		evicted += gm.TombstonesEvicted
	}
	if denseHeld == 0 || sparseHeld == 0 || sparseProbed == 0 {
		t.Errorf("reads found the key in %d dense and %d sparse tables (%d sparse probes): want both kinds", denseHeld, sparseHeld, sparseProbed)
	}
	if falsePositives == 0 || rowHits == 0 || evicted == 0 {
		t.Errorf("%d false positives, %d row-cache hits, %d tombstones evicted: want each path exercised", falsePositives, rowHits, evicted)
	}
}

// TestFilterNoFalseNegatives pins the invariant Engine.Read's
// membership-first probe rests on: however a run got its filter — a
// flush, a merge, a merge whose evicted tombstones were rebuilt out of
// the run, or the shared preload image — every key of the run passes
// the filter, and Contains agrees with the run.
func TestFilterNoFalseNegatives(t *testing.T) {
	check := func(how string, tab *ssTable) {
		t.Helper()
		for _, k := range tab.keys() {
			if !tab.MayContainHashed(hash2(k)) {
				t.Fatalf("%s: table of %d keys: the filter rejects its key %d", how, tab.Len(), k)
			}
			if !tab.Contains(k) {
				t.Fatalf("%s: table of %d keys: Contains(%d) = false", how, tab.Len(), k)
			}
		}
	}

	// The shared preload image, both strategies' generations.
	for _, strategy := range []float64{config.CompactionSizeTiered, config.CompactionLeveled} {
		e, err := New(Options{Space: config.Cassandra(), Config: config.Config{config.ParamCompactionStrategy: strategy}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Preload(3)
		for _, tab := range e.tables.tables {
			check("preload", tab)
		}
	}

	// Merges of seeded random tables, dense and sparse, with tombstones;
	// then the merge output with a random subset of them evicted.
	rowBytes, keysPerBlock, keySpace := 1024, 64, 1<<16
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := []uint64{512, 1 << 20, 1 << 62}[seed%3]
		var inputs []*ssTable
		for i := 0; i < 2+rng.Intn(4); i++ {
			set := make(map[uint64]bool)
			for j := 0; j < 1+rng.Intn(400); j++ {
				set[uint64(rng.Int63n(int64(span)))] = true
			}
			keys := make([]uint64, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			tab := newSSTable(uint64(i+1), keys, rowBytes, keysPerBlock, keySpace)
			for _, k := range keys {
				if rng.Intn(4) == 0 {
					tab.setTombstone(k)
				}
			}
			check("flush-shaped table", tab)
			inputs = append(inputs, tab)
		}
		out := mergeTables(99, inputs, 0, rowBytes, keysPerBlock, keySpace)
		check("merge", out)
		var gone []uint64
		for _, k := range out.keys() {
			if out.IsTombstone(k) && rng.Intn(2) == 0 {
				gone = append(gone, k)
			}
		}
		for _, k := range gone {
			out.dropCell(k)
		}
		out.rebuild(keySpace)
		check("merge + rebuild", out)
		for _, k := range gone {
			if out.Contains(k) {
				t.Fatalf("seed %d: evicted key %d still in the rebuilt run", seed, k)
			}
		}
	}

	// The engine's own flushes and compactions, tombstone eviction
	// included, under a write/delete stream; every live table is checked
	// as the stream goes and once the backlog has drained.
	var evicted uint64
	for _, tc := range readPathCases {
		e, err := New(Options{Space: tc.space, Config: tc.cfg, Seed: 3, EpochOps: 128})
		if err != nil {
			t.Fatal(err)
		}
		e.Preload(3)
		rng := rand.New(rand.NewSource(4))
		n := int64(e.KeySpace())
		for i := 0; i < 40_000; i++ {
			if i%8_000 == 0 {
				for _, tab := range e.tables.tables {
					check(tc.name+" engine table", tab)
				}
			}
			switch k := uint64(rng.Int63n(n)); i % 5 {
			case 0, 1:
				e.Write(k)
			case 2:
				e.WriteTTL(k, 0.05)
			case 3:
				e.Delete(k)
			default:
				e.Read(k)
			}
		}
		e.FinishEpoch()
		// The first full merge may find tables still claimed by pending
		// tasks, which shadow its tombstones; once the backlog drains,
		// the second merges every table, so none is shadowed.
		for range 2 {
			e.CompactAll()
			e.DrainBackground(10)
		}
		m := e.Metrics()
		if m.Flushes == 0 || m.Compactions == 0 {
			t.Fatalf("%s: %d flushes, %d compactions", tc.name, m.Flushes, m.Compactions)
		}
		for _, tab := range e.tables.tables {
			check(tc.name+" engine table", tab)
		}
		evicted += m.TombstonesEvicted
	}
	if evicted == 0 {
		t.Error("no compaction evicted a tombstone: the rebuild path went unchecked")
	}
}
