package nosql

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rafiki/internal/config"
)

// oracleScan is Engine.Scan as it stood while every next key was a
// minimum over all the cursors, found afresh for each key. Kept verbatim
// as the reference TestScanBitIdentical and FuzzEngineScan hold the
// windowed merge to.
func oracleScan(e *Engine, start uint64, limit int) int {
	e.ep.ops++
	e.m.Scans++
	if limit <= 0 {
		if e.ep.ops >= e.epochOps {
			e.closeEpoch()
		}
		return 0
	}
	cpu := e.model.ReadCPUSeconds

	// Position a cursor in every source that may still hold keys >=
	// start: the memtable's is its next held key, the tables' are kept
	// in e.tables' deterministic (append) order.
	memKey, memOK := e.mem.seek(start)
	srcs := e.scanSrcs[:0]
	for _, t := range e.tables.tables {
		keys := t.keys()
		if len(keys) == 0 || t.maxKey < start {
			continue
		}
		p := seekGE(keys, start)
		if p == len(keys) {
			continue
		}
		cpu += e.model.ScanSeekCPUSeconds
		srcs = append(srcs, scanSource{keys: keys, pos: p, t: t})
	}

	rows := 0
	for rows < limit {
		// The next key is the minimum over the live cursors.
		minKey, found := memKey, memOK
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.keys) {
				continue
			}
			if k := s.keys[s.pos]; !found || k < minKey {
				minKey, found = k, true
			}
		}
		if !found {
			break
		}

		// Merge the cell versions at minKey: the memtable is always
		// newest; otherwise the highest-seq table wins. Every version
		// consulted pays an iterator step, and table cursors charge a
		// block fetch when they cross into a new block.
		var (
			live      bool
			decided   bool
			bestSeq   uint64
			bestTable *ssTable
		)
		if memOK && memKey == minKey {
			cpu += e.model.ScanNextCPUSeconds
			e.m.ScanCells++
			c, _ := e.mem.Cell(minKey)
			live = !c.tomb && !cellExpired(c.expiry, e.clock)
			decided = true
			memKey, memOK = e.mem.seek(minKey + 1)
			memOK = memOK && minKey != math.MaxUint64 // minKey+1 wrapped to 0
		}
		for i := range srcs {
			s := &srcs[i]
			if s.pos >= len(s.keys) || s.keys[s.pos] != minKey {
				continue
			}
			cpu += e.model.ScanNextCPUSeconds
			e.m.ScanCells++
			b := s.t.BlockFor(minKey)
			if !s.blockValid || b != s.block {
				s.blockValid, s.block = true, b
				if e.fileCache.Touch(b) {
					e.m.FileCacheHits++
				} else {
					e.m.DiskBlockReads++
					e.ep.readMissBlocks++
				}
			}
			if bestTable == nil || s.t.seq > bestSeq {
				bestSeq, bestTable = s.t.seq, s.t
			}
			s.pos++
		}
		if !decided && bestTable != nil {
			live = !bestTable.IsTombstone(minKey) && !cellExpired(bestTable.ExpiryOf(minKey), e.clock)
		}
		if live {
			rows++
		}
	}

	// Park the (possibly grown) scratch empty: a cursor left in it would
	// pin its table — run, Bloom bits, bitmap — after compaction drops it.
	clear(srcs)
	e.scanSrcs = srcs[:0]

	e.ep.readCPU += cpu
	e.m.ScanRows += uint64(rows)
	e.o.scanLen.Observe(float64(rows))
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
	return rows
}

// scanTwins are two engines built from one seed: got scans through
// Engine.Scan, want through oracleScan, and every other op goes to both.
type scanTwins struct{ got, want *Engine }

func newScanTwins(t testing.TB, opts Options, preload int) scanTwins {
	t.Helper()
	build := func() *Engine {
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if preload > 0 {
			e.Preload(preload)
		}
		return e
	}
	return scanTwins{got: build(), want: build()}
}

func (tw scanTwins) each(op func(e *Engine)) {
	op(tw.got)
	op(tw.want)
}

// scan runs one scan on both engines and fails on any difference in the
// rows found or the state left behind.
func (tw scanTwins) scan(t testing.TB, start uint64, limit int) int {
	t.Helper()
	got, want := tw.got.Scan(start, limit), oracleScan(tw.want, start, limit)
	if got != want {
		t.Fatalf("Scan(%d, %d) = %d rows, oracle %d", start, limit, got, want)
	}
	tw.check(t, "Scan(%d, %d)", start, limit)
	return got
}

// check fails unless the engines' clocks, epoch accumulators and
// counters agree bit for bit; format and args name the op just run.
func (tw scanTwins) check(t testing.TB, format string, args ...any) {
	t.Helper()
	if math.Float64bits(tw.got.Clock()) != math.Float64bits(tw.want.Clock()) {
		t.Fatalf(format+": clock %v, oracle %v", append(args, tw.got.Clock(), tw.want.Clock())...)
	}
	if tw.got.ep != tw.want.ep {
		t.Fatalf(format+": epoch accumulator\n got  %+v\n want %+v", append(args, tw.got.ep, tw.want.ep)...)
	}
	if !reflect.DeepEqual(*tw.got.m, *tw.want.m) {
		t.Fatalf(format+": metrics\n got  %+v\n want %+v", append(args, *tw.got.m, *tw.want.m)...)
	}
}

// finish closes both engines' epochs and compares their exported
// metrics, epoch series included, and their file caches' recency.
func (tw scanTwins) finish(t testing.TB) Metrics {
	t.Helper()
	tw.each((*Engine).FinishEpoch)
	gm, wm := tw.got.Metrics(), tw.want.Metrics()
	if !reflect.DeepEqual(gm, wm) {
		t.Fatalf("final metrics differ\n got  %+v\n want %+v", gm, wm)
	}
	if !slices.Equal(tw.got.fileCache.order(), tw.want.fileCache.order()) {
		t.Fatal("file cache recency differs")
	}
	return gm
}

// TestScanBitIdentical holds Engine.Scan's windowed merge to oracleScan:
// twin engines take the same ops, and after every one their scan rows,
// virtual-clock bits, epoch accumulators and counters must agree, and at
// the end their epoch series and file-cache recency. The random streams
// run on readPathCases' engines (both compaction strategies, the row
// cache, a degraded node, sparse tables); "many-tables" stacks more
// than 64 overlapping tables, so a window's masks span two words, with
// held keys 127, 128 and 129 past another; "far-keys" scans around
// 1<<62 and up to math.MaxUint64, where lo+scanWindow wraps. Walking a
// key's tables in any order but ascending index moves the file cache's
// recency or the seq tie-break, and fails here.
func TestScanBitIdentical(t *testing.T) {
	const ops = 50_000
	for ci, tc := range readPathCases {
		t.Run(tc.name, func(t *testing.T) {
			tw := newScanTwins(t, Options{Space: tc.space, Config: tc.cfg, Seed: int64(60 + ci), EpochOps: 128}, 3)
			if tc.tax {
				tw.each(func(e *Engine) { e.SetDegradation(2.5, 1.75) })
			}
			frontier := uint64(tw.got.KeySpace())
			rng := rand.New(rand.NewSource(int64(ci)))
			key := func() uint64 { return uint64(rng.Int63n(int64(frontier))) }
			for op := 0; op < ops; op++ {
				if op == 3*ops/4 {
					// An idle stretch lets the long merges land.
					tw.each(func(e *Engine) {
						e.FinishEpoch()
						e.DrainBackground(30)
					})
				}
				var what string
				switch r := rng.Intn(100); {
				case r < 25:
					k := key()
					what = "read"
					tw.each(func(e *Engine) { e.Read(k) })
				case r < 45:
					k := key()
					what = "update"
					tw.each(func(e *Engine) { e.Write(k) })
				case r < 53:
					k, ttl := key(), 0.05+rng.Float64()
					what = "ttl write"
					tw.each(func(e *Engine) { e.WriteTTL(k, ttl) })
				case r < 61:
					what = "insert"
					tw.each(func(e *Engine) { e.Write(frontier) })
					frontier++
				case r < 69:
					k := key()
					what = "delete"
					tw.each(func(e *Engine) { e.Delete(k) })
				case r < 99:
					limit := 1 + rng.Intn(64)
					if rng.Intn(8) == 0 {
						limit = 1 + rng.Intn(1024)
					}
					tw.scan(t, key(), limit)
					continue
				default:
					what = "drain"
					tw.each(func(e *Engine) {
						e.FinishEpoch()
						e.DrainBackground(0.01)
					})
				}
				tw.check(t, "op %d (%s)", op, what)
			}
			m := tw.finish(t)
			if m.Compactions == 0 || m.Flushes == 0 || m.Scans == 0 {
				t.Errorf("%d flushes, %d compactions, %d scans: the stream never reshaped the tables", m.Flushes, m.Compactions, m.Scans)
			}
		})
	}

	t.Run("many-tables", func(t *testing.T) {
		// Epochs never close, so no merge lands: every flush stays a table.
		tw := newScanTwins(t, Options{Space: config.Cassandra(), Seed: 61, EpochOps: 1 << 30}, 3)
		ks := uint64(tw.got.KeySpace())
		edge := func(d uint64) uint64 { return ks + 1024*d } // a held key d ids below another
		rng := rand.New(rand.NewSource(61))
		const flushes = 80
		for f := 0; f < flushes; f++ {
			for i := 0; i < 48; i++ {
				k := uint64(rng.Intn(4096))
				switch rng.Intn(8) {
				case 0:
					tw.each(func(e *Engine) { e.Delete(k) })
				case 1:
					ttl := 0.001 + rng.Float64()*0.01
					tw.each(func(e *Engine) { e.WriteTTL(k, ttl) })
				default:
					tw.each(func(e *Engine) { e.Write(k) })
				}
			}
			for _, d := range []uint64{127, 128, 129} {
				k := edge(d) + uint64(f%2)*d
				tw.each(func(e *Engine) {
					if f == flushes-1 {
						e.Delete(k)
					} else {
						e.Write(k)
					}
				})
			}
			tw.each(func(e *Engine) { e.flush(false) })
		}
		if n := tw.got.tables.Len(); n <= 64 {
			t.Fatalf("%d tables, want more than 64", n)
		}
		for _, d := range []uint64{127, 128, 129} {
			k := edge(d)
			tw.each(func(e *Engine) { e.Write(k + d - 1) }) // and one in the memtable
			for _, start := range []uint64{k - d, k - 1, k, k + 1, k + d - 1, k + d} {
				for _, limit := range []int{1, 2, 3, 4, 64} {
					tw.scan(t, start, limit)
				}
			}
		}
		if words := len(tw.got.scanBits) / scanWindow; words < 2 {
			t.Fatalf("window masks are %d words wide, want at least 2", words)
		}
		for i := 0; i < 3000; i++ {
			if i%10 == 0 {
				k := uint64(rng.Intn(4096))
				tw.each(func(e *Engine) { e.Write(k) })
			}
			limit := 1 + rng.Intn(300)
			tw.scan(t, uint64(rng.Intn(4200)), limit)
		}
		tw.finish(t)
	})

	t.Run("far-keys", func(t *testing.T) {
		tw := newScanTwins(t, Options{Space: config.Cassandra(), Seed: 62, EpochOps: 64}, 0)
		var keys []uint64
		for i := uint64(0); i < 200; i++ {
			keys = append(keys, 1<<62+41*i, math.MaxUint64-3*i)
		}
		starts := []uint64{0, 1 << 62, 1<<62 - 1, 1<<62 + 127, 1<<62 + 128, 1<<62 + 129,
			math.MaxUint64 - 129, math.MaxUint64 - 128, math.MaxUint64 - 127, math.MaxUint64 - 1, math.MaxUint64}
		rng := rand.New(rand.NewSource(62))
		for op := 0; op < 8000; op++ {
			k := keys[rng.Intn(len(keys))]
			var what string
			switch r := rng.Intn(20); {
			case r < 8:
				what = "write"
				tw.each(func(e *Engine) { e.Write(k) })
			case r < 10:
				what = "ttl write"
				tw.each(func(e *Engine) { e.WriteTTL(k, 0.01) })
			case r < 12:
				what = "delete"
				tw.each(func(e *Engine) { e.Delete(k) })
			case r < 19:
				start := starts[rng.Intn(len(starts))]
				if rng.Intn(2) == 0 {
					start = k - uint64(rng.Intn(130))
				}
				tw.scan(t, start, 1+rng.Intn(256))
				continue
			default:
				what = "flush"
				tw.each(func(e *Engine) {
					e.flush(false)
					e.DrainBackground(0.01)
				})
			}
			tw.check(t, "op %d (%s)", op, what)
		}
		tw.each(func(e *Engine) { e.Write(math.MaxUint64) })
		for _, start := range starts {
			tw.scan(t, start, 1<<20)
		}
		if m := tw.finish(t); m.Flushes == 0 || m.Compactions == 0 {
			t.Errorf("%d flushes, %d compactions: the far keys never reshaped the tables", m.Flushes, m.Compactions)
		}
	})
}
