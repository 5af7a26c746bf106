package bench

import (
	"fmt"
	"math"

	"rafiki/internal/core"
	"rafiki/internal/stats"
)

// Figure4 regenerates the headline result: throughput of the default
// configuration vs Rafiki's optimized configuration across the workload
// range, with exhaustive-search reference points at three workloads
// (Section 4.8 / Figure 4).
func Figure4(p *Pipeline) (Report, error) {
	workloads := p.Dataset().Workloads()
	gridRRs := map[float64]bool{0.1: true, 0.5: true, 0.9: true}
	grid := GridConfigs()

	t := Table{
		Title:  "Throughput (ops/s): Default vs Rafiki vs exhaustive grid",
		Header: []string{"RR", "default", "rafiki", "gain", "exhaustive", "rafiki/exhaustive"},
	}
	var gains, readHeavyGains, writeHeavyGains []float64
	var ratioVsExhaustive []float64
	seed := p.Opts.Env.Seed + 70_000
	for _, w := range workloads {
		rr := w.ReadRatio
		seed += 1000
		def, err := p.MeasureDefault(w, seed)
		if err != nil {
			return Report{}, err
		}
		_, rafiki, err := p.RecommendAndMeasure(w, seed+1)
		if err != nil {
			return Report{}, err
		}
		gain := (rafiki - def) / def
		gains = append(gains, gain)
		if rr >= 0.7 {
			readHeavyGains = append(readHeavyGains, gain)
		}
		if rr <= 0.3 {
			writeHeavyGains = append(writeHeavyGains, gain)
		}

		exhaust, ratio := "-", "-"
		if gridRRs[math.Round(rr*10)/10] {
			gr, err := GridSearch(p.Collector, w, grid, seed+2)
			if err != nil {
				return Report{}, err
			}
			exhaust = f0(gr.BestThroughput)
			if gr.BestThroughput > 0 {
				r := rafiki / gr.BestThroughput
				ratio = pct(r)
				ratioVsExhaustive = append(ratioVsExhaustive, r)
			}
		}
		t.Rows = append(t.Rows, []string{
			pct(rr), f0(def), f0(rafiki), pct(gain), exhaust, ratio,
		})
	}

	mean, read, write := stats.Mean(gains), stats.Mean(readHeavyGains), stats.Mean(writeHeavyGains)
	reach := stats.Mean(ratioVsExhaustive)
	return Report{
		ID:     "figure4",
		Title:  "Default vs Rafiki-optimized Cassandra throughput across workloads",
		Tables: []Table{t},
		Claims: []Claim{
			claimOn(mean, atLeast(0.30), pct, "mean gain over default reaches the paper's ~30%% (%s)", pct(mean)),
			claimOn(read, atLeast(0.39), pct, "read-heavy (RR>=70%%) gain reaches the paper's 39-45%% band (%s)", pct(read)),
			claimOn(write, atLeast(0.06), pct, "write-heavy (RR<=30%%) gain reaches the paper's 6-24%% band (%s)", pct(write)),
			claimOn(reach, atLeast(0.85), pct, "Rafiki lands within the paper's 15%% of the exhaustive best on average (%s of it)", pct(reach)),
		},
	}, nil
}

// Table1 regenerates the configuration-sensitivity table: maximum,
// default, and minimum throughput over the collected configuration set
// for read-heavy, mixed, and write-heavy workloads (Section 4.6).
func Table1(p *Pipeline) (Report, error) {
	t := Table{
		Title:  "Cassandra max/default/min throughput over the collected configurations",
		Header: []string{"workload", "maximum", "default", "minimum", "max over min", "default over min"},
	}
	var spreads []float64 // max over min, read-heavy first
	for _, rr := range []float64{0.9, 0.5, 0.1} {
		var maxT, minT float64
		minT = math.Inf(1)
		var defT float64
		seen := false
		for _, s := range p.Dataset().Samples {
			if math.Abs(s.Workload.ReadRatio-rr) > 1e-9 || s.Workload.ScanRatio != 0 {
				continue
			}
			seen = true
			maxT, minT = max(maxT, s.Throughput), min(minT, s.Throughput)
			if len(s.Config) == 0 {
				defT = s.Throughput
			}
		}
		if !seen {
			return Report{}, fmt.Errorf("bench: dataset lacks workload RR=%v", rr)
		}
		if defT == 0 {
			d, err := p.MeasureDefault(core.RR(rr), p.Opts.Env.Seed+80_000)
			if err != nil {
				return Report{}, err
			}
			defT = d
		}
		spreads = append(spreads, maxT/minT-1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("read=%.0f%%", rr*100),
			f0(maxT), f0(defT), f0(minT),
			pct(maxT/minT - 1), pct(defT/minT - 1),
		})
	}
	return Report{
		ID:     "table1",
		Title:  "Throughput sensitivity to configuration across workloads",
		Tables: []Table{t},
		Notes: []string{
			"paper: read=90%: max 78,556 / default 53,461 / min 38,785 (max 102.5% over min); read=50%: 68.5% over min; read=10%: 30.7% over min",
		},
		Claims: []Claim{
			claimOn(spreads[0], atLeast(1.025), pct, "the best configuration beats the worst at read=90%% by the paper's 102.5%% or more (%s)", pct(spreads[0])),
			claim(spreads[0] > spreads[1] && spreads[1] > spreads[2],
				"the spread widens as the workload becomes read-heavy, as compaction-related parameters gate read amplification (%s > %s > %s at read=90/50/10%%)",
				pct(spreads[0]), pct(spreads[1]), pct(spreads[2])),
		},
	}, nil
}

// SearchSpeed regenerates Section 4.8's search-cost analysis: the GA
// over the surrogate vs exhaustive measurement, in both surrogate-call
// counts and projected wall-clock time.
func SearchSpeed(p *Pipeline) (Report, error) {
	w := core.RR(0.9)
	rec, err := p.Recommend(w)
	if err != nil {
		return Report{}, err
	}
	searchSize, err := p.Space().SearchSpaceSize()
	if err != nil {
		return Report{}, err
	}

	// The paper prices one real sample at ~7 minutes (2 min load + 5
	// min stable measurement) and one surrogate call at ~45us.
	const (
		minutesPerRealSample = 7.0
		secondsPerSurrogate  = 45e-6
	)
	gaSeconds := float64(rec.Evaluations) * secondsPerSurrogate
	exhaustiveHours := float64(searchSize) * minutesPerRealSample / 60

	grid := GridConfigs()
	gr, err := GridSearch(p.Collector, w, grid, p.Opts.Env.Seed+90_000)
	if err != nil {
		return Report{}, err
	}
	_, rafikiMeasured, err := p.RecommendAndMeasure(w, p.Opts.Env.Seed+90_500)
	if err != nil {
		return Report{}, err
	}

	speedup := exhaustiveHours * 3600 / gaSeconds
	reach := rafikiMeasured / gr.BestThroughput
	t := Table{
		Title:  "Search cost: GA over surrogate vs exhaustive measurement (RR=90%)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"surrogate evaluations (GA)", fmt.Sprintf("%d", rec.Evaluations)},
			{"GA search time (projected)", fmt.Sprintf("%.2f s", gaSeconds)},
			{"quantized search space", fmt.Sprintf("%d configurations", searchSize)},
			{"exhaustive search time (projected)", fmt.Sprintf("%.0f hours", exhaustiveHours)},
			{"speedup", fmt.Sprintf("%.0fx", speedup)},
			{"grid-best measured throughput", f0(gr.BestThroughput)},
			{"rafiki measured throughput", f0(rafikiMeasured)},
			{"rafiki vs grid best", pct(reach)},
		},
	}
	return Report{
		ID:     "searchspeed",
		Title:  "GA+surrogate search cost vs exhaustive grid search",
		Tables: []Table{t},
		Notes: []string{
			"paper: ~3,350 surrogate evaluations in ~1.8s; exhaustive search ~2,080 hours; Rafiki uses ~1/10,000th of the search time and reaches within 15% of the best achievable performance",
		},
		Claims: []Claim{
			claimOn(speedup, atLeast(10_000), times, "the GA search takes the paper's ~1/10,000th of the exhaustive time or less (%s faster)", times(speedup)),
			claimOn(reach, atLeast(0.85), pct, "Rafiki reaches within the paper's 15%% of the grid best (%s of it)", pct(reach)),
		},
	}, nil
}
