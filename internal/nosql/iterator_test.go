package nosql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rafiki/internal/config"
)

// scanModelCell is the reference model's view of one key: whether the
// newest acknowledged mutation was a live write and, if TTL'd, when it
// stops being visible.
type scanModelCell struct {
	alive  bool
	expiry float64 // 0 = never expires
}

// scanModel is the sorted-map reference the merged iterator is checked
// against.
type scanModel map[uint64]scanModelCell

func (m scanModel) aliveAt(key uint64, now float64) bool {
	c := m[key]
	return c.alive && !cellExpired(c.expiry, now)
}

// scanRef computes the reference scan result: the number of live,
// unexpired keys >= start, capped at limit.
func (m scanModel) scanRef(start uint64, limit int, now float64) int {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rows := 0
	for _, k := range keys {
		if rows >= limit {
			break
		}
		if k >= start && m.aliveAt(k, now) {
			rows++
		}
	}
	return rows
}

// scanOpKind enumerates the operations the scan property tests drive.
type scanOpKind int

const (
	scanOpPut scanOpKind = iota
	scanOpPutTTL
	scanOpDelete
	scanOpScan
	scanOpFlushEpoch
	scanOpCompactAll
	scanOpDrain
	scanOpRestart
	scanOpKinds
)

// applyScanOp drives one operation against both the engine and the
// reference model, checking scan results against the model whenever a
// scan runs. Returns false (after reporting) on divergence.
func applyScanOp(t *testing.T, e *Engine, model scanModel, kind scanOpKind, key uint64, arg uint64, seed int64) bool {
	t.Helper()
	switch kind {
	case scanOpPut:
		e.Write(key)
		model[key] = scanModelCell{alive: true}
	case scanOpPutTTL:
		// TTLs span sub-epoch to multi-epoch lifetimes so some expire
		// mid-run and some survive it.
		ttl := 0.001 + float64(arg%64)*0.01
		expiry := e.Clock() + ttl
		e.WriteTTL(key, ttl)
		model[key] = scanModelCell{alive: true, expiry: expiry}
	case scanOpDelete:
		e.Delete(key)
		model[key] = scanModelCell{}
	case scanOpScan:
		limit := int(arg%128) + 1
		got := e.Scan(key, limit)
		want := model.scanRef(key, limit, e.Clock())
		if got != want {
			t.Errorf("seed %d: Scan(%d, %d) = %d, model says %d", seed, key, limit, got, want)
			return false
		}
	case scanOpFlushEpoch:
		e.FinishEpoch()
	case scanOpCompactAll:
		e.CompactAll()
		e.DrainBackground(0.2)
	case scanOpDrain:
		e.DrainBackground(0.1)
	case scanOpRestart:
		e.Restart()
	}
	if got, want := e.Alive(key), model.aliveAt(key, e.Clock()); got != want {
		t.Errorf("seed %d: Alive(%d) = %v, model says %v", seed, key, got, want)
		return false
	}
	return true
}

// TestEngineScanMatchesModel runs random op sequences — writes,
// TTL'd writes, deletes, scans, flushes, compactions, crash-restarts —
// against the sorted-map reference model and fails with the replay
// seed on any divergence.
func TestEngineScanMatchesModel(t *testing.T) {
	seeds := []int64{7, 1234, 99991}
	ops := 8_000
	if testing.Short() {
		ops = 2_000
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			e, err := New(Options{Space: config.Cassandra(), Seed: seed, EpochOps: 512})
			if err != nil {
				t.Fatal(err)
			}
			ks := uint64(e.KeySpace())
			model := make(scanModel)
			// Seed history through the normal write path so scans cross
			// flushed tables, not just the memtable.
			for k := uint64(0); k < ks; k += 3 {
				e.Write(k)
				model[k] = scanModelCell{alive: true}
			}
			scans := 0
			for i := 0; i < ops; i++ {
				kind := scanOpKind(rng.Intn(int(scanOpKinds)))
				// Structural ops are rare; data ops and scans dominate.
				if kind >= scanOpFlushEpoch && rng.Intn(8) != 0 {
					kind = scanOpKind(rng.Intn(4))
				}
				if kind == scanOpScan {
					scans++
				}
				key := rng.Uint64() % ks
				if !applyScanOp(t, e, model, kind, key, rng.Uint64(), seed) {
					t.Fatalf("seed %d: diverged after %d ops", seed, i+1)
				}
			}
			if scans == 0 {
				t.Fatalf("seed %d: degenerate sequence ran no scans", seed)
			}
			// Final sweep: a full-range scan must agree with the model.
			e.FinishEpoch()
			e.DrainBackground(1)
			if got, want := e.Scan(0, int(ks)), model.scanRef(0, int(ks), e.Clock()); got != want {
				t.Fatalf("seed %d: final full scan = %d rows, model says %d", seed, got, want)
			}
			m := e.Metrics()
			if m.Scans == 0 || m.ScanCells == 0 {
				t.Fatalf("seed %d: scan metrics not accounted (%+v)", seed, m.Scans)
			}
		})
	}
}

// TestEngineFarKeysMatchModel drives writes, TTL'd writes, deletes and
// scans at 1<<62, its neighbours and the largest key — far past the
// memtable's bitmap — through flushes, compactions and restarts. Every
// scan and liveness check must agree with the model, and neither the
// bitmap nor a steady far-key op may allocate in proportion to the key.
func TestEngineFarKeysMatchModel(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 3, EpochOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 1 << 62, 1<<62 + 1, 1<<62 + 64, math.MaxUint64 - 1, math.MaxUint64}
	model := make(scanModel)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		kind := scanOpKind(rng.Intn(int(scanOpKinds)))
		if kind >= scanOpFlushEpoch && rng.Intn(8) != 0 {
			kind = scanOpKind(rng.Intn(4))
		}
		if i%200 == 199 {
			e.flush(false)
		}
		if !applyScanOp(t, e, model, kind, keys[rng.Intn(len(keys))], rng.Uint64(), 3) {
			t.Fatalf("diverged after %d ops", i+1)
		}
	}
	if e.Metrics().Flushes == 0 || e.Metrics().Scans == 0 {
		t.Fatal("the schedule never flushed or never scanned")
	}
	if len(e.mem.bits) > 2 {
		t.Errorf("far keys grew the memtable's bitmap to %d words", len(e.mem.bits))
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.WriteTTL(1<<62, 1)
		e.Write(1 << 62)
		e.Delete(1<<62 + 1)
		e.Scan(1<<62, 8)
	})
	if allocs > 1 {
		t.Errorf("steady far-key ops allocate %.2f times per round", allocs)
	}
}

// FuzzEngineScan drives the merged iterator from fuzzer-chosen op
// tapes: each byte triple is (op, key, arg). The engine must never
// panic and every scan must agree with the sorted-map model, whatever
// the interleaving of writes, TTLs, deletes, flushes, compactions, and
// restarts; a twin engine scanning through oracleScan must find the same
// rows and end each op with the same clock and counters. An epoch-close
// op with an odd arg also flushes the memtable into a table.
func FuzzEngineScan(f *testing.F) {
	f.Add([]byte{0, 10, 0, 3, 5, 20, 0, 11, 0, 2, 10, 0, 3, 5, 20})
	f.Add([]byte{1, 4, 9, 6, 0, 0, 3, 0, 50, 7, 0, 0, 3, 0, 50})
	f.Add([]byte{0, 1, 0, 5, 0, 0, 2, 1, 0, 3, 0, 16})
	// A window edge over 70 tables: table i holds key i and one of keys
	// 127..129, the last deletes 128, and scans start on both sides.
	var deep []byte
	for i := byte(0); i < 70; i++ {
		deep = append(deep, byte(scanOpPut), i, 0, byte(scanOpPut), 127+i%3, 0, byte(scanOpFlushEpoch), 0, 1)
	}
	deep = append(deep, byte(scanOpDelete), 128, 0, byte(scanOpFlushEpoch), 0, 1, byte(scanOpPut), 129, 0)
	for _, start := range []byte{0, 1, 58, 69, 127, 128, 129} {
		deep = append(deep, byte(scanOpScan), start, 63, byte(scanOpScan), start, 127)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 1536 {
			tape = tape[:1536]
		}
		tw := newScanTwins(t, Options{Space: config.Cassandra(), Seed: 1331, EpochOps: 128}, 0)
		e := tw.got
		ks := uint64(e.KeySpace())
		model := make(scanModel)
		restarts := 0
		for i := 0; i+2 < len(tape); i += 3 {
			kind := scanOpKind(tape[i]) % scanOpKinds
			if kind == scanOpRestart {
				// Cap restarts: each is expensive and a tape of pure
				// restarts would time the fuzzer out without testing much.
				if restarts >= 4 {
					kind = scanOpPut
				} else {
					restarts++
				}
			}
			key := uint64(tape[i+1]) % ks
			arg := uint64(tape[i+2])
			switch kind {
			case scanOpPut:
				tw.each(func(e *Engine) { e.Write(key) })
				model[key] = scanModelCell{alive: true}
			case scanOpPutTTL:
				ttl := 0.001 + float64(arg%16)*0.005
				expiry := e.Clock() + ttl
				tw.each(func(e *Engine) { e.WriteTTL(key, ttl) })
				model[key] = scanModelCell{alive: true, expiry: expiry}
			case scanOpDelete:
				tw.each(func(e *Engine) { e.Delete(key) })
				model[key] = scanModelCell{}
			case scanOpScan:
				limit := int(arg%128) + 1
				if got, want := tw.scan(t, key, limit), model.scanRef(key, limit, e.Clock()); got != want {
					t.Fatalf("Scan(%d, %d) = %d, model %d (tape %v)", key, limit, got, want, tape)
				}
			case scanOpFlushEpoch:
				tw.each(func(e *Engine) {
					e.FinishEpoch()
					if arg%2 == 1 {
						e.flush(false)
					}
				})
			case scanOpCompactAll:
				tw.each(func(e *Engine) {
					e.CompactAll()
					e.DrainBackground(0.05)
				})
			case scanOpDrain:
				tw.each(func(e *Engine) { e.DrainBackground(0.02) })
			case scanOpRestart:
				tw.each((*Engine).Restart)
			}
			tw.check(t, "op %d (tape %v)", i/3, tape)
		}
		tw.finish(t)
	})
}

// TestScanMemtableTombstoneShadowsSSTable pins the tombstone-merge
// edge case: a key deleted in the memtable but still live in a flushed
// SSTable must not appear in a scan, while its neighbours do.
func TestScanMemtableTombstoneShadowsSSTable(t *testing.T) {
	e := newBareEngine(t, nil)
	for k := uint64(10); k <= 14; k++ {
		e.Write(k)
	}
	e.flush(false) // keys 10..14 now live in an SSTable
	e.Delete(12)   // tombstone only in the memtable
	if e.mem.IsTombstone(12) != true {
		t.Fatal("setup: tombstone should sit in the memtable")
	}
	if got := e.Scan(10, 10); got != 4 {
		t.Fatalf("Scan(10, 10) = %d rows, want 4 (key 12 shadowed by memtable tombstone)", got)
	}
	if got := e.Scan(12, 1); got != 1 {
		t.Fatalf("Scan(12, 1) = %d rows, want 1 (key 13 is the first live key)", got)
	}
}

// TestScanTTLExpiry pins TTL visibility at scan time: a cell whose
// expiry has passed is skipped, one whose expiry lies ahead is
// returned, and the boundary (expiry == now) counts as expired.
func TestScanTTLExpiry(t *testing.T) {
	e := newBareEngine(t, nil)
	e.WriteTTL(20, 0.05) // will expire during the drain below
	e.WriteTTL(21, 1e9)  // effectively immortal
	e.Write(22)
	if got := e.Scan(20, 10); got != 3 {
		t.Fatalf("Scan before expiry = %d rows, want 3", got)
	}
	e.flush(false) // the TTL'd cells land in an SSTable
	e.FinishEpoch()
	e.DrainBackground(0.2) // push the clock past key 20's expiry
	if got := e.Scan(20, 10); got != 2 {
		t.Fatalf("Scan after expiry = %d rows, want 2 (key 20 expired mid-run)", got)
	}
	if e.Alive(20) {
		t.Fatal("expired cell should not be alive")
	}
	// Compaction converts the expired cell into a tombstone. A second
	// table gives CompactAll something to merge.
	e.Write(19)
	e.flush(false)
	e.CompactAll()
	e.DrainBackground(2)
	if got := e.Scan(20, 10); got != 2 {
		t.Fatalf("Scan after compaction = %d rows, want 2", got)
	}
	if e.Metrics().ExpiredCells == 0 {
		t.Fatal("compaction should have converted the expired cell")
	}
}

// TestScanSpansFlushAndCompactionBoundary pins the invariant that
// flushes and compactions never change a scan's logical result: the
// same range returns the same rows as the data migrates memtable →
// L0 SSTable → compacted table.
func TestScanSpansFlushAndCompactionBoundary(t *testing.T) {
	e := newBareEngine(t, nil)
	for k := uint64(100); k < 120; k++ {
		e.Write(k)
	}
	e.flush(false) // first half on disk
	for k := uint64(120); k < 140; k++ {
		e.Write(k)
	}
	// The scan now spans the SSTable (100..119), the memtable
	// (120..139), and the boundary between them.
	if got := e.Scan(100, 100); got != 40 {
		t.Fatalf("scan across flush boundary = %d rows, want 40", got)
	}
	e.flush(false)
	e.CompactAll()
	e.DrainBackground(2)
	if got := e.Scan(100, 100); got != 40 {
		t.Fatalf("scan after compaction = %d rows, want 40", got)
	}
	if got := e.Scan(110, 100); got != 30 {
		t.Fatalf("mid-range scan = %d rows, want 30", got)
	}
}

// TestScanAllocGuard pins the scan hot path's allocation budget: once
// the cursor scratch and the memtable's bitmap are warm, a scan must not
// allocate — neither on a quiescent memtable nor when it follows the
// write of a key the memtable has not seen.
func TestScanAllocGuard(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 5, EpochOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(3)
	for k := uint64(0); k < 64; k++ {
		e.Write(k * 7)
	}
	e.Scan(0, 64) // warm the scratch, the run, and block caches
	allocs := testing.AllocsPerRun(50, func() {
		e.Scan(0, 64)
	})
	if allocs > 0.5 {
		t.Fatalf("Scan allocates %.1f times per op, want 0", allocs)
	}

	// Grow the memtable's bitmap past the keys the measured loop will
	// add, then empty it without building a table.
	const fresh = 200
	for k := uint64(0); k < 4*fresh; k++ {
		e.mem.Insert(1000+k, 0, float64(e.hw.RowBytes))
	}
	e.mem.Drain()
	next := uint64(1000)
	allocs = testing.AllocsPerRun(fresh, func() {
		e.Write(next) // a key the memtable does not hold
		next += 3
		e.Scan(next-30, 64)
	})
	if allocs > 0 {
		t.Fatalf("a new-key write plus Scan allocates %.2f times, want 0", allocs)
	}
	if got := e.mem.Len(); got != fresh+1 {
		t.Fatalf("memtable holds %d keys after the measured loop, want %d (no flush may interleave)", got, fresh+1)
	}
}

// TestScanParksScratchCleared pins that a finished scan leaves no
// cursor in its scratch: a parked cursor would keep its table's run,
// Bloom bits and bitmap reachable after compaction has dropped the
// table, until some later scan happened to overwrite the slot. Nor may
// it leave a window mask set.
func TestScanParksScratchCleared(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(3)
	e.Write(7)
	if rows := e.Scan(0, 64); rows == 0 {
		t.Fatal("scan found no rows")
	}
	if cap(e.scanSrcs) < 2 {
		t.Fatalf("scan scratch holds %d cursors, want the memtable's and the tables'", cap(e.scanSrcs))
	}
	for i, s := range e.scanSrcs[:cap(e.scanSrcs)] {
		if s.t != nil || s.keys != nil {
			t.Errorf("parked cursor %d still references its source", i)
		}
	}
	// A scan that stops at its limit mid-window leaves the window's
	// masks zeroed too: the next scan ORs into them.
	for _, limit := range []int{1, 5, 64, 200} {
		e.Scan(40, limit)
		if i := slices.IndexFunc(e.scanBits, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("Scan(40, %d) left mask word %d set", limit, i)
		}
	}
}

// BenchmarkScanUnderWrites times a 64-row scan that follows the write
// of a key the memtable has not seen — the interleaving a CRUD mix
// produces. ns/op must not scale with the memtable's size: the scan's
// memtable cursor walks the bitmap from the scan's start, whatever was
// written before it. (When every such scan re-sorted a cell map, 8k
// keys cost ~10x 1k keys.)
func BenchmarkScanUnderWrites(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10} {
		b.Run(fmt.Sprintf("memtable=%d", n), func(b *testing.B) {
			e, err := New(Options{Space: config.Cassandra(), Seed: 1, EpochOps: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			e.Preload(3)
			span := uint64(e.KeySpace())
			rng := rand.New(rand.NewSource(2))
			// The memtable holds n to n+n/8 keys: writes go straight to
			// it, past the write path's own flush trigger, and it is
			// emptied and refilled off the clock when it has grown an
			// eighth.
			refill := func() {
				e.mem.Drain()
				for e.mem.Len() < n {
					e.mem.Insert(uint64(rng.Int63n(int64(span))), 0, float64(e.hw.RowBytes))
				}
			}
			refill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.mem.Len() >= n+n/8 {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				k := uint64(rng.Int63n(int64(span)))
				for e.mem.Contains(k) {
					k = uint64(rng.Int63n(int64(span)))
				}
				e.mem.Insert(k, 0, float64(e.hw.RowBytes))
				benchRows += e.Scan(uint64(rng.Int63n(int64(span))), 64)
			}
		})
	}
}

var benchRows int
