package workload

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleKeyGenerator is KeyGenerator as it was before the history ring
// grew on demand: the whole 4 x KRD ring allocated and zeroed up front,
// its length doubling as the reuse window. Kept verbatim as the
// reference the lazily grown ring must reproduce key for key.
type oracleKeyGenerator struct {
	rng       *rand.Rand
	keySpace  uint64
	mean      float64
	history   []uint64
	lastIndex []uint64
	index     uint64
}

func newOracleKeyGenerator(keySpace int, meanKRD float64, seed int64) *oracleKeyGenerator {
	histLen := int(4 * meanKRD)
	const maxHistory = 1 << 20
	if histLen > maxHistory {
		histLen = maxHistory
	}
	if histLen < 1 {
		histLen = 1
	}
	return &oracleKeyGenerator{
		rng:       rand.New(rand.NewSource(seed)),
		keySpace:  uint64(keySpace),
		mean:      meanKRD,
		history:   make([]uint64, histLen),
		lastIndex: make([]uint64, keySpace),
	}
}

func (g *oracleKeyGenerator) Next() uint64 {
	var key uint64
	reused := false
	if g.mean > 0 {
		for try := 0; try < 4 && !reused; try++ {
			d := uint64(g.rng.ExpFloat64()*g.mean) + 1
			if d > g.index || d > uint64(len(g.history)) {
				continue
			}
			pos := g.index - d
			candidate := g.history[pos%uint64(len(g.history))]
			if g.lastIndex[candidate] == pos {
				key = candidate
				reused = true
			}
		}
	}
	if !reused {
		key = uint64(g.rng.Int63n(int64(g.keySpace)))
	}
	g.history[g.index%uint64(len(g.history))] = key
	g.lastIndex[key] = g.index
	g.index++
	return key
}

// TestKeyGeneratorMatchesEagerRing drives the generator and the oracle
// side by side: streams that stop well short of the window (the
// collector's case: KRD = 2 x key space, ops << 4 x KRD), streams that
// run several times round the ring, a window of one, a KRD above the
// ring's cap, and the uniform KRD = 0 stream.
func TestKeyGeneratorMatchesEagerRing(t *testing.T) {
	cases := []struct {
		keySpace int
		krd      float64
		ops      int
	}{
		{1000, 2000, 3000},         // short of the 8 000-entry window
		{1000, 50, 1000},           // 5 x the 200-entry window
		{200, 7.3, 5000},           // fractional KRD, ~170 laps
		{50, 0.2, 500},             // 4 x KRD < 1: window of one
		{64, 0, 500},               // uniform
		{100_000, 200_000, 60_000}, // the collector's shape
		{500, 400_000, 5000},       // window capped at 1<<20
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("space%d_krd%v_seed%d", tc.keySpace, tc.krd, seed), func(t *testing.T) {
				got, err := NewKeyGenerator(tc.keySpace, tc.krd, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := newOracleKeyGenerator(tc.keySpace, tc.krd, seed)
				for i := 0; i < tc.ops; i++ {
					if g, w := got.Next(), want.Next(); g != w {
						t.Fatalf("op %d: key %d, eager ring gives %d", i, g, w)
					}
				}
				if len(got.history) > tc.ops || uint64(len(got.history)) > got.window {
					t.Errorf("ring holds %d entries after %d ops (window %d)", len(got.history), tc.ops, got.window)
				}
			})
		}
	}
}

// BenchmarkKeyGeneratorSample is one collector sample's key stream:
// 60 000 keys at a KRD of twice the key space, generator construction
// included, since every sample builds a fresh one.
func BenchmarkKeyGeneratorSample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewKeyGenerator(100_000, 200_000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for op := 0; op < 60_000; op++ {
			g.Next()
		}
	}
}
