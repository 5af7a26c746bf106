package nosql

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/par"
)

// oraclePreload is Preload as it stood before the preload image was
// shared: every generation's run is built for this engine alone, handed
// to newSSTable, and indexed on the spot. Kept verbatim as the
// reference the shared image must be indistinguishable from.
func oraclePreload(e *Engine, versions int) {
	if versions < 1 {
		versions = 1
	}
	install := func(keys []uint64) *ssTable {
		t := newSSTable(e.newTableID(), keys, e.hw.RowBytes, e.hw.KeysPerBlock(), e.hw.ScaledKeySpace())
		e.tables.Add(t)
		return t
	}
	n := uint64(e.hw.ScaledKeySpace())
	all := make([]uint64, n)
	for k := range all {
		all[k] = uint64(k)
	}
	full := install(all)
	if e.p.compaction == config.CompactionLeveled {
		full.level = e.restingLevel(full.Bytes())
		l1 := make([]uint64, 0, (n+31)/32)
		for k := uint64(0); k < n; k += 32 {
			l1 = append(l1, k)
		}
		install(l1).level = 1
	} else {
		for g := 1; g < versions+1; g++ {
			stride := uint64(1) << uint(2*g) // 4^g
			k0 := uint64(0)
			for (k0*2654435761+uint64(g)*97)%stride != 0 {
				k0++
			}
			if k0 >= n {
				continue
			}
			keys := make([]uint64, 0, (n-k0+stride-1)/stride)
			for k := k0; k < n; k += stride {
				keys = append(keys, k)
			}
			install(keys)
		}
	}
	if e.tables.Len() > e.m.MaxSSTables {
		e.m.MaxSSTables = e.tables.Len()
	}
}

// resetPreloadImage empties the preload cache, so the next Preload
// builds every run again.
func resetPreloadImage() {
	preloaded.Lock()
	defer preloaded.Unlock()
	clear(preloaded.runs)
}

// livePreloadRuns counts the cached runs some table still holds.
func livePreloadRuns() int {
	preloaded.Lock()
	defer preloaded.Unlock()
	live := 0
	for _, w := range preloaded.runs {
		if w.Value() != nil {
			live++
		}
	}
	return live
}

// hashWord folds one 64-bit word into h.
func hashWord(h hash.Hash64, w uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	h.Write(b[:])
}

// imageChecksum folds every word of the engine's tables' runs, filters
// and bitmaps into one FNV-1a word.
func imageChecksum(e *Engine) uint64 {
	h := fnv.New64a()
	for _, t := range e.tables.tables {
		for _, words := range [][]uint64{t.sorted, t.bloom.bits, t.present} {
			for _, w := range words {
				hashWord(h, w)
			}
		}
	}
	return h.Sum64()
}

// churnConfig flushes every few thousand writes.
func churnConfig(strategy float64) config.Config {
	return config.Config{
		config.ParamCompactionStrategy: strategy,
		config.ParamMemtableCleanup:    0.05,
	}
}

// churn drives a seeded mix of reads, writes, deletes and scans, with
// idle stretches in which the planned merges complete and a major
// compaction halfway: every preloaded table is merged away.
func churn(e *Engine, ops int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := int64(e.KeySpace())
	for i := 0; i < ops; i++ {
		k := uint64(rng.Int63n(n))
		switch {
		case i == ops/2:
			e.CompactAll()
		case i%5000 == 0:
			e.DrainBackground(15)
		case i%499 == 0:
			e.Scan(k, 48)
		case i%10 < 3:
			e.Read(k)
		case i%10 < 9:
			e.Write(k)
		default:
			e.Delete(k)
		}
	}
	e.FinishEpoch()
}

// TestPreloadMatchesOracle compares the shared image with oraclePreload
// table by table, then runs both engines through the same compacting
// workload: sharing must be invisible in every number the engine
// reports. In the 20-key space size-tiered generation 3's residue class
// starts at key 45, so that generation is skipped.
func TestPreloadMatchesOracle(t *testing.T) {
	small := DefaultHardware()
	small.KeySpace = 20 * small.Scale
	type variant struct {
		strategy float64
		versions int
		hw       Hardware
	}
	variants := []variant{{config.CompactionLeveled, 1, Hardware{}}, {config.CompactionLeveled, 2, small}}
	for versions := 1; versions <= 3; versions++ {
		variants = append(variants,
			variant{config.CompactionSizeTiered, versions, Hardware{}},
			variant{config.CompactionSizeTiered, versions, small})
	}
	for _, v := range variants {
		t.Run(fmt.Sprintf("strategy=%v/versions=%d/keys=%d", v.strategy, v.versions, v.hw.KeySpace), func(t *testing.T) {
			build := func() *Engine {
				e, err := New(Options{Space: config.Cassandra(), Config: churnConfig(v.strategy), Hardware: v.hw, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			got, want := build(), build()
			got.Preload(v.versions)
			oraclePreload(want, v.versions)

			if got.tables.Len() != want.tables.Len() || got.m.MaxSSTables != want.m.MaxSSTables || got.nextTableID != want.nextTableID {
				t.Fatalf("%d tables (max %d, next id %d), oracle %d (max %d, next id %d)",
					got.tables.Len(), got.m.MaxSSTables, got.nextTableID, want.tables.Len(), want.m.MaxSSTables, want.nextTableID)
			}
			if v.hw == small && v.strategy == config.CompactionSizeTiered && got.tables.Len() != min(v.versions, 2)+1 {
				t.Fatalf("%d tables over 20 keys: generation 3 has no key below 45", got.tables.Len())
			}
			for i, g := range got.tables.tables {
				w := want.tables.tables[i]
				if g.id != w.id || g.seq != w.seq || g.level != w.level || g.blockSpan != w.blockSpan ||
					g.minKey != w.minKey || g.maxKey != w.maxKey || g.rowBytes != w.rowBytes || g.keysPerBlock != w.keysPerBlock ||
					g.Bytes() != w.Bytes() {
					t.Errorf("table %d header: %+v, oracle %+v", i, *g, *w)
				}
				if !slices.Equal(g.sorted, w.sorted) || cap(g.sorted) != len(g.sorted) {
					t.Errorf("table %d: run of %d keys (cap %d), oracle %d", i, len(g.sorted), cap(g.sorted), len(w.sorted))
				}
				if g.bloom.nBits != w.bloom.nBits || g.bloom.nHashes != w.bloom.nHashes || !slices.Equal(g.bloom.bits, w.bloom.bits) {
					t.Errorf("table %d: filter differs from the oracle's", i)
				}
				if !slices.Equal(g.present, w.present) || (g.present == nil) != (w.present == nil) {
					t.Errorf("table %d: bitmap differs from the oracle's", i)
				}
			}

			churn(got, 50_000, 10)
			churn(want, 50_000, 10)
			gm, wm := got.Metrics(), want.Metrics()
			if v.hw != small && gm.Compactions == 0 {
				t.Fatal("the run never compacted")
			}
			if !reflect.DeepEqual(gm, wm) || got.Clock() != want.Clock() {
				t.Errorf("after 50k ops: clock %v metrics %+v\noracle: clock %v metrics %+v", got.Clock(), gm, want.Clock(), wm)
			}
		})
	}
}

// TestPreloadImageSharedReadOnly runs eight engines at once over one
// image, each compacting its preloaded tables away, while a ninth holds
// the image untouched: the shared words must not change (the race
// detector watches the same thing from below), every engine must report
// what a lone engine reports, and the image must die with its last user.
func TestPreloadImageSharedReadOnly(t *testing.T) {
	build := func() *Engine {
		e, err := New(Options{Space: config.Cassandra(), Config: churnConfig(config.CompactionSizeTiered), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		e.Preload(3)
		return e
	}
	resetPreloadImage()
	holder := build()
	if got := livePreloadRuns(); got != 4 {
		t.Fatalf("%d live runs after one Preload(3), want 4", got)
	}
	before := imageChecksum(holder)

	lone := build()
	for i, tb := range lone.tables.tables {
		if tb.tableRun != holder.tables.tables[i].tableRun {
			t.Fatalf("table %d: a second engine built its own run", i)
		}
	}
	churn(lone, 50_000, 10)
	want := lone.Metrics()
	if want.Compactions == 0 {
		t.Fatal("the run never compacted")
	}

	const engines = 8
	results := make([]Metrics, engines)
	err := par.Do(engines, par.Options{Workers: engines}, func(i int) error {
		e := build()
		churn(e, 50_000, 10)
		results[i] = e.Metrics()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range results {
		if !reflect.DeepEqual(m, want) {
			t.Errorf("engine %d of %d concurrent ones diverged from a lone run:\n%+v\nwant %+v", i, engines, m, want)
		}
	}
	if after := imageChecksum(holder); after != before {
		t.Errorf("shared image checksum %#x after the runs, %#x before", after, before)
	}

	runtime.KeepAlive(holder)
	holder, lone = nil, nil
	runtime.GC()
	if got := livePreloadRuns(); got != 0 {
		t.Errorf("%d runs still live after their engines were dropped", got)
	}
}

// TestCompactedPreloadTableReleasesRun: an engine that merges a
// preloaded table away must not keep that table's run alive.
func TestCompactedPreloadTableReleasesRun(t *testing.T) {
	resetPreloadImage()
	e, err := New(Options{Space: config.Cassandra(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(3)
	e.CompactAll()
	for e.Metrics().Compactions == 0 {
		e.DrainBackground(1)
	}
	runtime.GC()
	if got := livePreloadRuns(); got != 0 {
		t.Errorf("%d preloaded runs live after a major compaction replaced all four tables", got)
	}
	runtime.KeepAlive(e)
}
