package bench

import (
	"fmt"
	"math"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/stats"
)

// Figure10 regenerates the throughput-variance comparison: Cassandra
// and ScyllaDB under an identical stationary 70%-read workload with
// default configurations, sampled over time (Section 4.10). ScyllaDB's
// internal auto-tuner makes its throughput fluctuate — sometimes by
// ~60% for extended periods — which is what degrades its surrogate's
// accuracy relative to Cassandra's.
func Figure10(env Env) (Report, error) {
	const rr = 0.7
	long := env.Sampler
	long.SampleOps *= 3 // longer run to expose the slow wander
	series := func(space *config.Space) ([]float64, error) {
		long.Space = space
		_, st, err := long.Run(core.RR(rr), nil, env.Seed+11, env.Seed+12)
		if err != nil {
			return nil, err
		}
		return st.Metrics().EpochThroughputs, nil
	}
	cSeries, err := series(config.Cassandra())
	if err != nil {
		return Report{}, err
	}
	sSeries, err := series(config.ScyllaDB())
	if err != nil {
		return Report{}, err
	}

	// cvs and swings hold each engine's coefficient of variation and
	// peak-to-trough swing, Cassandra first.
	var cvs, swings []float64
	describe := func(name string, series []float64) []string {
		mean := stats.Mean(series)
		sd := stats.StdDev(series)
		mn, _ := stats.Min(series)
		mx, _ := stats.Max(series)
		cv := 0.0
		if mean > 0 {
			cv = sd / mean
		}
		cvs, swings = append(cvs, cv), append(swings, (mx-mn)/mean)
		// Local variability separates the auto-tuner's sample-to-sample
		// jitter from slow trends like compaction-debt warm-up, which
		// both engines share.
		var local float64
		for i := 1; i < len(series); i++ {
			local += math.Abs(series[i] - series[i-1])
		}
		if len(series) > 1 && mean > 0 {
			local = local / float64(len(series)-1) / mean
		}
		return []string{
			name,
			fmt.Sprintf("%d", len(series)),
			f0(mean), f0(sd), pct(cv), pct(local), f0(mn), f0(mx),
			pct(swings[len(swings)-1]),
		}
	}
	t := Table{
		Title:  "Throughput over time at RR=70% (default configurations)",
		Header: []string{"engine", "samples", "mean", "std dev", "CV", "local var", "min", "max", "peak-to-trough"},
		Rows: [][]string{
			describe("Cassandra", cSeries),
			describe("ScyllaDB", sSeries),
		},
	}

	spark := func(series []float64) string {
		if len(series) == 0 {
			return ""
		}
		mn, _ := stats.Min(series)
		mx, _ := stats.Max(series)
		glyphs := []rune("_.-=*#")
		var out []rune
		step := max(len(series)/60, 1)
		for i := 0; i < len(series); i += step {
			frac := 0.0
			if mx > mn {
				frac = (series[i] - mn) / (mx - mn)
			}
			idx := int(frac * float64(len(glyphs)-1))
			out = append(out, glyphs[idx])
		}
		return string(out)
	}
	timeline := Table{
		Title:  "Throughput sparklines (time left to right)",
		Header: []string{"engine", "series"},
		Rows: [][]string{
			{"Cassandra", spark(cSeries)},
			{"ScyllaDB", spark(sSeries)},
		},
	}

	return Report{
		ID:     "figure10",
		Title:  "Throughput stability: Cassandra vs ScyllaDB",
		Tables: []Table{t, timeline},
		Notes: []string{
			"paper: Cassandra's throughput is stable; ScyllaDB's fluctuates substantially (up to ~60% for ~40 seconds), making its throughput harder to predict",
		},
		Claims: []Claim{
			claim(cvs[1] > cvs[0] && swings[1] > swings[0],
				"ScyllaDB's coefficient of variation and peak-to-trough swing exceed Cassandra's (CV %s vs %s, swing %s vs %s)",
				pct(cvs[1]), pct(cvs[0]), pct(swings[1]), pct(swings[0])),
		},
	}, nil
}
