package bench

import (
	"fmt"
	"math"

	"rafiki/internal/config"
	"rafiki/internal/core"
)

// Figure5 regenerates the ANOVA ranking of Cassandra's configuration
// parameters (Section 4.5): each parameter swept one at a time with the
// rest at defaults, ranked by the standard deviation of mean throughput
// across sweep values. The paper reports compaction strategy far ahead
// (~11x concurrent_writes), a cluster of memtable/cache parameters
// next, and a long tail of insignificant ones.
func Figure5(env Env) (Report, error) {
	space := config.Cassandra()
	id, err := core.IdentifyKeyParameters(env.Sampler, space, core.IdentifyOptions{
		ReadRatio: 0.5,
		MinK:      4,
		MaxK:      8,
		Repeats:   1,
		Seed:      env.Seed + 50_000,
	})
	if err != nil {
		return Report{}, err
	}

	selected := make(map[string]bool, len(id.KeyNames))
	for _, n := range id.KeyNames {
		selected[n] = true
	}
	t := Table{
		Title:  "ANOVA ranking: std dev of mean throughput across one-parameter sweeps (top 20)",
		Header: []string{"rank", "parameter", "response std dev (ops/s)", "selected"},
	}
	for i, e := range id.Ranking.Entries {
		if i >= 20 {
			break
		}
		mark := ""
		if selected[e.Factor] {
			mark = "KEY"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), e.Factor, f0(e.ResponseStdDev), mark,
		})
	}

	notes := []string{
		"paper: 5 key parameters (compaction strategy, concurrent_writes, file_cache_size_in_mb, memtable_cleanup_threshold, concurrent_compactors); compaction strategy's std dev ~11x concurrent_writes",
	}
	if len(id.Ranking.Entries) >= 2 && id.Ranking.Entries[1].ResponseStdDev > 0 {
		ratio := id.Ranking.Entries[0].ResponseStdDev / id.Ranking.Entries[1].ResponseStdDev
		notes = append(notes, fmt.Sprintf("measured: top parameter's std dev is %.1fx the runner-up's", ratio))
	}
	// The space's published key set is the paper's selection.
	same := len(space.KeyNames) == len(id.KeyNames)
	for _, n := range space.KeyNames {
		same = same && selected[n]
	}
	return Report{
		ID:     "figure5",
		Title:  "ANOVA key-parameter identification for Cassandra",
		Tables: []Table{t},
		Notes:  notes,
		Claims: []Claim{
			claim(same, "the elbow rule selects the paper's five key parameters (selected %d: %v)", len(id.KeyNames), id.KeyNames),
		},
	}, nil
}

// Figure6 regenerates the parameter-interdependency demonstration
// (Section 4.6): the effect of doubling concurrent_writes depends on
// the compaction strategy, which is why greedy one-at-a-time tuning
// fails.
func Figure6(env Env) (Report, error) {
	const rr = 0.5
	strategies := []struct {
		name  string
		value float64
	}{
		{"SizeTiered", config.CompactionSizeTiered},
		{"Leveled", config.CompactionLeveled},
	}
	cwValues := []float64{16, 32, 64}

	results := make(map[string]map[float64]float64)
	seed := env.Seed + 60_000
	for _, s := range strategies {
		results[s.name] = make(map[float64]float64)
		for _, cw := range cwValues {
			seed++
			tput, err := env.Sample(core.RR(rr), config.Config{
				config.ParamCompactionStrategy: s.value,
				config.ParamConcurrentWrites:   cw,
			}, seed)
			if err != nil {
				return Report{}, err
			}
			results[s.name][cw] = tput
		}
	}

	t := Table{
		Title:  "Throughput (ops/s) at RR=50% by compaction strategy x concurrent writers",
		Header: []string{"concurrent_writes", "SizeTiered", "Leveled"},
	}
	for _, cw := range cwValues {
		t.Rows = append(t.Rows, []string{
			f0(cw), f0(results["SizeTiered"][cw]), f0(results["Leveled"][cw]),
		})
	}

	effects := Table{
		Title:  "Effect of doubling concurrent_writes, by strategy",
		Header: []string{"change", "SizeTiered", "Leveled"},
	}
	effect := func(name string, cw float64) float64 {
		r := results[name]
		return (r[2*cw] - r[cw]) / r[cw]
	}
	// gap is how far apart one doubling moves the two strategies.
	var gap [2]float64
	for i, cw := range cwValues[:2] {
		st, lcs := effect("SizeTiered", cw), effect("Leveled", cw)
		gap[i] = math.Abs(st - lcs)
		effects.Rows = append(effects.Rows, []string{fmt.Sprintf("CW %.0f -> %.0f", cw, 2*cw), pct(st), pct(lcs)})
	}

	return Report{
		ID:     "figure6",
		Title:  "Interdependency between compaction strategy and concurrent writers",
		Tables: []Table{t, effects},
		Notes: []string{
			"paper: CW 16->32 improves SizeTiered ~+30% but barely moves Leveled; CW 32->64 hurts Leveled ~-12.7% but barely moves SizeTiered",
		},
		Claims: []Claim{
			claimOn(max(gap[0], gap[1]), atLeast(0.127), points,
				"the optimal CW depends on the compaction strategy, so greedy one-at-a-time tuning is suboptimal: a doubling moves the strategies apart by the paper's 12.7 points or more (CW 16 -> 32: %.1f points, 32 -> 64: %.1f)",
				100*gap[0], 100*gap[1]),
		},
	}, nil
}
