package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of the usual reporting
// percentiles that still leaves at least ten of n samples beyond it —
// the only tail a sample of that size can support. With fewer than
// twenty samples nothing beyond the median qualifies.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		// Samples strictly beyond the nearest-rank p-quantile.
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns Q1, the median and Q3 by the method Python's
// statistics.quantiles(xs, n=4) uses (exclusive), so spreads computed
// here match the ones the PR driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-based, interpolated.
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median: the
// spread the PR driver holds each metric's bound against.
func relSpread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
