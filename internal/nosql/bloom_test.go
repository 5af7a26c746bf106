package nosql

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloomFilter(10_000, 0.01)
	for k := uint64(0); k < 10_000; k++ {
		b.Add(k * 7919)
	}
	for k := uint64(0); k < 10_000; k++ {
		if !b.MayContainHashed(hash2(k * 7919)) {
			t.Fatalf("false negative for key %d", k*7919)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 20_000
	b := newBloomFilter(n, 0.01)
	for k := uint64(0); k < n; k++ {
		b.Add(k)
	}
	rng := rand.New(rand.NewSource(1))
	var fps int
	const probes = 100_000
	for i := 0; i < probes; i++ {
		key := uint64(rng.Int63())>>1 + n // disjoint from inserted range
		if b.MayContainHashed(hash2(key)) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f far above the 0.01 target", rate)
	}
	if rate == 0 {
		t.Error("a bloom filter with zero false positives over 100k probes is suspicious")
	}
}

// TestBloomFalsePositivesFallWithBitsPerKey is a metamorphic relation:
// over one key set and one fixed set of 100k absent keys, a filter given
// more bits per key (2 to 16) never admits more false positives.
func TestBloomFalsePositivesFallWithBitsPerKey(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(1))
	absent := make([]uint64, 100_000)
	for i := range absent {
		absent[i] = uint64(rng.Int63())>>1 + n*7919 // above every inserted key
	}
	prev := len(absent) + 1
	for bits := 2; bits <= 16; bits++ {
		// The fp target whose optimal filter spends bits bits per key.
		b := newBloomFilter(n, math.Exp(-float64(bits)*math.Ln2*math.Ln2))
		for k := uint64(0); k < n; k++ {
			b.Add(k * 7919)
		}
		fps := 0
		for _, key := range absent {
			if b.MayContainHashed(hash2(key)) {
				fps++
			}
		}
		if fps > prev {
			t.Errorf("%d bits per key admit %d false positives, %d bits %d", bits, fps, bits-1, prev)
		}
		prev = fps
	}
}

func TestBloomDegenerateSizing(t *testing.T) {
	// Tiny and invalid parameters must still produce a working filter.
	for _, tt := range []struct {
		n  int
		fp float64
	}{
		{0, 0.01},
		{1, 0.01},
		{100, 0},
		{100, 1},
		{100, -3},
	} {
		b := newBloomFilter(tt.n, tt.fp)
		b.Add(42)
		if !b.MayContainHashed(hash2(42)) {
			t.Errorf("n=%d fp=%v: lost inserted key", tt.n, tt.fp)
		}
	}
}

func TestBloomPropertyInsertedAlwaysFound(t *testing.T) {
	f := func(keys []uint64) bool {
		b := newBloomFilter(len(keys)+1, 0.01)
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.MayContainHashed(hash2(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHash2Independence(t *testing.T) {
	// The two hash streams must differ and spread.
	seen := make(map[uint64]bool)
	for k := uint64(0); k < 1000; k++ {
		h1, h2 := hash2(k)
		if h1 == h2 {
			t.Fatalf("h1 == h2 for key %d", k)
		}
		seen[h1] = true
	}
	if len(seen) < 1000 {
		t.Errorf("h1 collisions: %d distinct of 1000", len(seen))
	}
}

func TestSSTableBloomIntegration(t *testing.T) {
	keys := []uint64{10, 20, 30, 40}
	tb := newSSTable(1, keys, 1024, 2, 1000)
	for _, k := range keys {
		if !tb.MayContainHashed(hash2(k)) {
			t.Errorf("bloom lost key %d", k)
		}
	}
	// Merged tables carry a rebuilt filter covering the union.
	other := newSSTable(2, []uint64{50, 60}, 1024, 2, 1000)
	merged := mergeTables(3, []*ssTable{tb, other}, 0, 1024, 2, 1000)
	for _, k := range []uint64{10, 50} {
		if !merged.MayContainHashed(hash2(k)) {
			t.Errorf("merged bloom lost key %d", k)
		}
	}
}
