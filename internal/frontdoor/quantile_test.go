package frontdoor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// exactQuantile is the oracle: the nearest-rank q-quantile of sorted xs.
func exactQuantile(xs []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// TestQuantileSelectionMatchesOracle checks the in-place selection
// against sorting and reading the three nearest ranks, over seeded
// slices of n = 1 to 2 000 latencies: all tied, a few distinct values,
// all distinct, and each presorted, reversed or shuffled. The selection
// must also leave a permutation of its input behind.
func TestQuantileSelectionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 2000; n++ {
		xs := make([]float64, n)
		distinct := []int{1, 3, n}[n%3]
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 1e-4
		}
		switch n % 5 {
		case 0:
			slices.Sort(xs)
		case 1:
			slices.Sort(xs)
			slices.Reverse(xs)
		}
		sorted := slices.Sorted(slices.Values(xs))
		p50, p99, p999 := quantiles(xs)
		if want := exactQuantile(sorted, 0.50); p50 != want {
			t.Fatalf("n=%d: p50 %v, sort says %v", n, p50, want)
		}
		if want := exactQuantile(sorted, 0.99); p99 != want {
			t.Fatalf("n=%d: p99 %v, sort says %v", n, p99, want)
		}
		if want := exactQuantile(sorted, 0.999); p999 != want {
			t.Fatalf("n=%d: p999 %v, sort says %v", n, p999, want)
		}
		if slices.Sort(xs); !slices.Equal(xs, sorted) {
			t.Fatalf("n=%d: selection lost or duplicated values", n)
		}
	}
}
