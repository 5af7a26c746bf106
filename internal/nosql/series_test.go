package nosql

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/golden"
	"rafiki/internal/stats"
)

// seriesRun drives a seeded 300k-op mix (reads, writes, deletes, the
// odd scan) with a crash-restart a third of the way in, and returns the
// engine with its last epoch closed.
func seriesRun(t testing.TB, epochOps int, drop bool) *Engine {
	t.Helper()
	e, err := New(Options{Space: config.Cassandra(), Seed: 41, EpochOps: epochOps, DropEpochSeries: drop})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(2)
	rng := rand.New(rand.NewSource(43))
	n := int64(e.KeySpace())
	const ops = 300_000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Int63n(n))
		switch {
		case i == ops/3:
			e.Restart()
		case i%997 == 0:
			e.Scan(k, 32)
		case i%10 < 5:
			e.Read(k)
		case i%10 < 9:
			e.Write(k)
		default:
			e.Delete(k)
		}
	}
	e.FinishEpoch()
	return e
}

// TestEpochSeriesGolden pins both epoch series: their length, means and
// the latency p99, and each series' digest. At EpochOps 1 the run
// crosses every chunk size up to the 8 Ki cap. With DropEpochSeries set
// the run closes the same epochs and keeps neither series.
func TestEpochSeriesGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		epochOps int
		drop     bool
	}{{"per-op", 1, false}, {"default", 0, false}, {"dropped", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := seriesRun(t, tc.epochOps, tc.drop).Metrics()
			if tc.drop {
				if m.Epochs == 0 || len(m.EpochThroughputs) != 0 || len(m.EpochLatencies) != 0 {
					t.Fatalf("%d epochs kept %d throughput and %d latency entries, want none",
						m.Epochs, len(m.EpochThroughputs), len(m.EpochLatencies))
				}
				kept := seriesRun(t, tc.epochOps, false).Metrics()
				kept.EpochThroughputs, kept.EpochLatencies = m.EpochThroughputs, m.EpochLatencies
				if !reflect.DeepEqual(m, kept) {
					t.Fatalf("dropping the series moved the counters:\n%+v\nkept:\n%+v", m, kept)
				}
				return
			}
			if uint64(len(m.EpochThroughputs)) != m.Epochs || len(m.EpochLatencies) != len(m.EpochThroughputs) {
				t.Fatalf("%d epochs, %d throughput and %d latency entries", m.Epochs, len(m.EpochThroughputs), len(m.EpochLatencies))
			}
			golden.Check(t, "testdata/epoch_series_"+tc.name+".golden", fmt.Appendf(nil,
				"epochs %d\nthroughput mean %v digest %s\nlatency mean %v p99 %v digest %s\n",
				len(m.EpochThroughputs), stats.Mean(m.EpochThroughputs), golden.Digest(fmt.Append(nil, m.EpochThroughputs)),
				stats.Mean(m.EpochLatencies), m.LatencyPercentile(0.99), golden.Digest(fmt.Append(nil, m.EpochLatencies))))
		})
	}
}

// TestEpochSeriesMatchesAppend holds the chunked series to the slice it
// replaced — one append per epoch — at every length around the chunk
// boundaries.
func TestEpochSeriesMatchesAppend(t *testing.T) {
	var s epochSeries
	var oracle []float64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*seriesMaxChunk+seriesFirstChunk; i++ {
		if got := s.appendTo(nil); s.len() != len(oracle) || !slices.Equal(got, oracle) {
			t.Fatalf("after %d epochs the series holds %d, diverging from the appended slice", i, s.len())
		}
		v := rng.Float64()
		s.add(v)
		oracle = append(oracle, v)
	}
	for i, c := range s.full {
		if want := min(seriesFirstChunk<<i, seriesMaxChunk); len(c) != want || cap(c) != want {
			t.Errorf("chunk %d: len %d cap %d, want %d full", i, len(c), cap(c), want)
		}
	}
}

// TestMetricsSeriesAreTheCallers checks that Metrics hands out fresh
// slices: scribbling on one snapshot leaves the next one, and the
// engine's own record, untouched.
func TestMetricsSeriesAreTheCallers(t *testing.T) {
	e := seriesRun(t, 0, false)
	m1 := e.Metrics()
	wantT, wantL := slices.Clone(m1.EpochThroughputs), slices.Clone(m1.EpochLatencies)
	p99 := m1.LatencyPercentile(0.99)
	for i := range m1.EpochThroughputs {
		m1.EpochThroughputs[i] = -1
		m1.EpochLatencies[i] = -1
	}
	m2 := e.Metrics()
	if !slices.Equal(m2.EpochThroughputs, wantT) || !slices.Equal(m2.EpochLatencies, wantL) {
		t.Fatal("a write to a returned series reached the engine")
	}
	if got := m2.LatencyPercentile(0.99); got != p99 {
		t.Errorf("p99 latency %v after the write, %v before", got, p99)
	}
}

// TestNoClientsNoLatencies: without a closed-loop client pool there is
// no Little's-law latency to derive.
func TestNoClientsNoLatencies(t *testing.T) {
	model := DefaultCostModel()
	model.ClientConcurrency = 0
	e, err := New(Options{Space: config.Cassandra(), Seed: 3, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(1)
	for k := uint64(0); k < 5000; k++ {
		e.Read(k)
	}
	e.FinishEpoch()
	m := e.Metrics()
	if len(m.EpochThroughputs) != 5 || m.EpochLatencies != nil {
		t.Errorf("%d throughput epochs, latencies %v; want 5 and nil", len(m.EpochThroughputs), m.EpochLatencies)
	}
	if got := m.LatencyPercentile(0.5); got != 0 {
		t.Errorf("latency percentile %v without clients", got)
	}
}

// TestCloseEpochAllocGuard pins what an epoch close may allocate at
// EpochOps 1, where every operation closes one: the series' next chunk,
// and nothing else — at most one allocation per chunk, plus the
// doubling of the chunk list itself.
func TestCloseEpochAllocGuard(t *testing.T) {
	e, err := New(Options{Space: config.Cassandra(), Seed: 7, EpochOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(1)
	rng := rand.New(rand.NewSource(11))
	n := int64(e.KeySpace())
	read := func(ops int) {
		for i := 0; i < ops; i++ {
			e.Read(uint64(rng.Int63n(n)))
		}
	}
	read(60_000) // warm: the block cache's slab and index reach their size
	chunks, listCap := len(e.rates.full), cap(e.rates.full)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const ops = 200_000
	read(ops)
	runtime.ReadMemStats(&m1)

	grown := len(e.rates.full) - chunks
	if grown < ops/seriesMaxChunk {
		t.Fatalf("%d epochs added %d chunks", ops, grown)
	}
	budget := uint64(grown)
	for c := max(listCap, 1); c < cap(e.rates.full); c *= 2 {
		budget++
	}
	if got := m1.Mallocs - m0.Mallocs; got > budget {
		t.Errorf("%d epoch closes made %d allocations, want <= %d (%d chunks)", ops, got, budget, grown)
	}
}
