// Package anova implements Rafiki's important-parameter-identification
// stage (Section 3.4): one-way analysis of variance over
// one-parameter-at-a-time sweeps. Each configuration parameter is
// varied while the rest stay at defaults, throughput samples are
// collected per level, and parameters are ranked by how strongly they
// move the response. A distinct drop in variance between rank k and
// k+1 selects the top-k "key parameters".
package anova

import (
	"fmt"
	"sort"

	"rafiki/internal/stats"
)

// Table is a one-way ANOVA decomposition for a single factor.
type Table struct {
	// Factor names the parameter analyzed.
	Factor string
	// Groups is the number of factor levels, N the total sample count.
	Groups, N int
	// SSB and SSW are the between-group and within-group sums of
	// squares; DFB and DFW the matching degrees of freedom.
	SSB, SSW float64
	DFB, DFW int
	// F is the test statistic MS_between / MS_within and P its
	// right-tail p-value under the F distribution.
	F, P float64
	// GroupMeans holds the mean response per level, in input order.
	GroupMeans []float64
	// ResponseStdDev is the standard deviation of the per-level mean
	// responses — the ranking signal plotted in the paper's Figure 5.
	ResponseStdDev float64
}

// OneWay computes a one-way ANOVA over groups of samples, one group per
// factor level. Every group needs at least one sample, and at least two
// groups are required.
func OneWay(factor string, groups [][]float64) (Table, error) {
	if len(groups) < 2 {
		return Table{}, fmt.Errorf("anova: factor %q needs >= 2 levels, got %d", factor, len(groups))
	}
	var (
		n     int
		total float64
	)
	for i, g := range groups {
		if len(g) == 0 {
			return Table{}, fmt.Errorf("anova: factor %q level %d has no samples", factor, i)
		}
		n += len(g)
		total += stats.Sum(g)
	}
	grand := total / float64(n)

	t := Table{
		Factor:     factor,
		Groups:     len(groups),
		N:          n,
		DFB:        len(groups) - 1,
		DFW:        n - len(groups),
		GroupMeans: make([]float64, 0, len(groups)),
	}
	for _, g := range groups {
		mean := stats.Mean(g)
		t.GroupMeans = append(t.GroupMeans, mean)
		d := mean - grand
		t.SSB += float64(len(g)) * d * d
		for _, x := range g {
			w := x - mean
			t.SSW += w * w
		}
	}
	t.ResponseStdDev = stats.StdDev(t.GroupMeans)

	if t.DFW <= 0 || t.SSW == 0 {
		// With one sample per level (the paper's sweep protocol) there
		// is no within-group variance; the F statistic is undefined and
		// ranking falls back to ResponseStdDev.
		t.F = 0
		t.P = 1
		return t, nil
	}
	msb := t.SSB / float64(t.DFB)
	msw := t.SSW / float64(t.DFW)
	if msw == 0 {
		t.F = 0
		t.P = 1
		return t, nil
	}
	t.F = msb / msw
	p, err := stats.FPValue(t.F, float64(t.DFB), float64(t.DFW))
	if err != nil {
		return Table{}, fmt.Errorf("anova: factor %q p-value: %w", factor, err)
	}
	t.P = p
	return t, nil
}

// Ranking is the ordered result of analyzing every parameter.
type Ranking struct {
	// Entries are sorted by descending ResponseStdDev.
	Entries []Table
}

// Rank analyzes each factor's sweep groups and sorts by response
// standard deviation, the paper's Figure 5 ordering.
func Rank(sweeps map[string][][]float64) (Ranking, error) {
	entries := make([]Table, 0, len(sweeps))
	names := make([]string, 0, len(sweeps))
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-breaking
	for _, name := range names {
		t, err := OneWay(name, sweeps[name])
		if err != nil {
			return Ranking{}, err
		}
		entries = append(entries, t)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].ResponseStdDev > entries[j].ResponseStdDev
	})
	return Ranking{Entries: entries}, nil
}

// TopK returns the first k factor names.
func (r Ranking) TopK(k int) []string {
	if k > len(r.Entries) {
		k = len(r.Entries)
	}
	out := make([]string, 0, k)
	for _, e := range r.Entries[:k] {
		out = append(out, e.Factor)
	}
	return out
}

// Elbow selects k by the paper's rule: "a distinct drop in the variance
// when going from top-k to top-(k+1)". It scans for the largest
// relative drop between consecutive ranked standard deviations within
// [minK, maxK] and returns the count before the drop.
func (r Ranking) Elbow(minK, maxK int) int {
	if minK < 1 {
		minK = 1
	}
	if maxK > len(r.Entries)-1 {
		maxK = len(r.Entries) - 1
	}
	if maxK < minK {
		return min(minK, len(r.Entries))
	}
	bestK := minK
	bestDrop := -1.0
	for k := minK; k <= maxK; k++ {
		cur := r.Entries[k-1].ResponseStdDev
		next := r.Entries[k].ResponseStdDev
		if cur <= 0 {
			continue
		}
		drop := (cur - next) / cur
		if drop > bestDrop {
			bestDrop = drop
			bestK = k
		}
	}
	return bestK
}
