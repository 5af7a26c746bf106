package bench

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"rafiki/internal/stats"
)

// OverSeeds renders one experiment set's verdicts at several seeds:
// every claim with "holds on k of n" and its text and verdict at each
// seed, then each seed's claim count and a digest of its rendered
// reports (so the rendering pins every number, not only the claims),
// and a closing counts line. A claim that reads one number (claimOn) also
// shows that number as median [min..max] over the seeds and its verdict
// on the median; any other claim holds on the median when it holds at
// more than half the seeds, the median of its verdicts. runs[s] holds the
// set's reports at seeds[s]; every run must list the same experiments
// with the same number of claims each, which a seeded harness guarantees.
func OverSeeds(seeds []int64, runs [][]Report) (string, error) {
	if len(seeds) == 0 || len(runs) != len(seeds) {
		return "", fmt.Errorf("bench: %d runs for %d seeds", len(runs), len(seeds))
	}
	base := runs[0]
	for s, run := range runs[1:] {
		if len(run) != len(base) {
			return "", fmt.Errorf("bench: seed %d ran %d experiments, seed %d ran %d", seeds[s+1], len(run), seeds[0], len(base))
		}
		for i, rep := range run {
			if rep.ID != base[i].ID || len(rep.Claims) != len(base[i].Claims) {
				return "", fmt.Errorf("bench: seed %d's %s has %d claims, seed %d's %s has %d",
					seeds[s+1], rep.ID, len(rep.Claims), seeds[0], base[i].ID, len(base[i].Claims))
			}
		}
	}
	n := len(seeds)
	var sb strings.Builder
	fmt.Fprintf(&sb, "== claims over seeds %s ==\n", joinSeeds(seeds))
	always, never, onMedian, total := 0, 0, 0, 0
	values := make([]float64, n)
	for i, rep := range base {
		for c, cl := range rep.Claims {
			k := 0
			for s, run := range runs {
				got := run[i].Claims[c]
				if got.Holds {
					k++
				}
				if (got.num == nil) != (cl.num == nil) {
					return "", fmt.Errorf("bench: %s %s %d reads one number at seed %d but not at seed %d", rep.ID, cl.kind(), c+1, seeds[0], seeds[s])
				}
				if got.num != nil {
					values[s] = got.num.value
				}
			}
			total++
			switch k {
			case n:
				always++
			case 0:
				never++
			}
			median, holds := "", 2*k > n
			if cl.num != nil {
				m, err := stats.Quantile(values, 0.5)
				if err != nil {
					return "", err
				}
				holds = cl.num.holds(m)
				median = fmt.Sprintf("; median %s [%s..%s] %s", cl.num.show(m),
					cl.num.show(slices.Min(values)), cl.num.show(slices.Max(values)), verdict(holds))
			}
			if holds {
				onMedian++
			}
			fmt.Fprintf(&sb, "\n%s %s %d: holds on %d of %d%s\n", rep.ID, cl.kind(), c+1, k, n, median)
			for s, run := range runs {
				fmt.Fprintf(&sb, "  seed %d %s: %s\n", seeds[s], verdict(run[i].Claims[c].Holds), run[i].Claims[c].Text)
			}
		}
	}
	sb.WriteByte('\n')
	for s, run := range runs {
		held, all := 0, 0
		var text strings.Builder
		for _, rep := range run {
			text.WriteString(rep.Render())
			all += len(rep.Claims)
			for _, cl := range rep.Claims {
				if cl.Holds {
					held++
				}
			}
		}
		fmt.Fprintf(&sb, "seed %d: claims: %d of %d hold; reports sha256 %x\n", seeds[s], held, all, sha256.Sum256([]byte(text.String())))
	}
	fmt.Fprintf(&sb, "claims over %d seeds: %d hold on the median, %d hold at every seed, %d flip with the seed, %d fail at every seed (of %d)\n",
		n, onMedian, always, total-always-never, never, total)
	return sb.String(), nil
}

func joinSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ", ")
}
