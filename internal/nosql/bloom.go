package nosql

import "math"

// bloomFilter is a real Bloom filter (bit array + double hashing), one
// per SSTable, replacing a probabilistic stand-in: reads consult it
// before paying for an index lookup, and its false positives are a
// genuine property of the inserted key set rather than a random draw.
type bloomFilter struct {
	bits    []uint64
	nBits   uint64
	nHashes int
}

// newBloomFilter sizes a filter for n keys at the target false-positive
// rate using the standard m = -n*ln(p)/ln(2)^2 and k = m/n*ln(2)
// formulas.
func newBloomFilter(n int, fpRate float64) bloomFilter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return bloomFilter{
		bits:    make([]uint64, (m+63)/64),
		nBits:   m,
		nHashes: k,
	}
}

// hash2 derives two independent 64-bit hashes of key (splitmix64-style
// finalizers); the k probe positions are h1 + i*h2 (Kirsch-Mitzenmacher
// double hashing).
//
//rafiki:hot
func hash2(key uint64) (uint64, uint64) {
	x := key + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	y := key ^ 0xD6E8FEB86659FD93
	y ^= y >> 32
	y *= 0xFF51AFD7ED558CCD
	y ^= y >> 29
	y *= 0xC4CEB9FE1A85EC53
	y ^= y >> 32
	return x, y
}

// Add inserts key.
func (b *bloomFilter) Add(key uint64) {
	h1, h2 := hash2(key)
	for i := 0; i < b.nHashes; i++ {
		pos := (h1 + uint64(i)*h2) % b.nBits
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContainHashed reports whether the key whose hash2 pair is (h1, h2)
// might be present (no false negatives). A read derives the pair once
// and probes every table's filter with it.
//
//rafiki:hot
func (b *bloomFilter) MayContainHashed(h1, h2 uint64) bool {
	for i := 0; i < b.nHashes; i++ {
		pos := (h1 + uint64(i)*h2) % b.nBits
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
