package bench

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/stats"
)

// MixCollectionGrid is the workload-characterization grid behind the
// workload-mix experiment: the paper's read-ratio axis crossed with the
// scan-ratio axis the CRUD+scan suite adds. Training over the cross
// product is what lets the surrogate learn how configuration value
// shifts with workload shape — nothing about compaction strategy is
// special-cased anywhere downstream.
func MixCollectionGrid() []core.Workload {
	var grid []core.Workload
	for _, rr := range []float64{0.1, 0.5, 0.9} {
		for _, scan := range []float64{0, 0.1, 0.2, 0.4} {
			grid = append(grid, core.Workload{ReadRatio: rr, ScanRatio: scan})
		}
	}
	return grid
}

// WorkloadMix demonstrates shape-aware tuning end to end: it trains a
// pipeline over MixCollectionGrid and then sweeps the scan share at a
// write-heavy read ratio, reporting the tuner's recommended
// configuration per shape. The headline claim is that the recommended
// compaction strategy flips toward Leveled as range scans enter the
// mix — size-tiered's write advantage loses to the scan cost of
// consulting many overlapping tables — and that the tuner discovers
// this from collected samples alone.
//
// The experiment's gates fail if the discovery does not materialize:
// the tuner must recommend Leveled at the top of the scan sweep, and
// the surrogate's leveled-over-size-tiered margin there must be wider
// than at the bottom.
func WorkloadMix(opts PipelineOptions) (Report, error) {
	opts.Collect.Workloads = MixCollectionGrid()
	p, err := NewCassandraPipeline(opts)
	if err != nil {
		return Report{}, err
	}
	return workloadMixReport(p, []float64{0, 0.1, 0.2, 0.3, 0.4})
}

// workloadMixReport runs the scan-ratio sweep against an
// already-trained pipeline (split out so tests can drive it with a
// small one).
func workloadMixReport(p *Pipeline, scanRatios []float64) (Report, error) {
	// Write-heavy point operations: the one regime where size-tiered
	// compaction has a real niche, so a flip with rising scan share is
	// a genuine regime change rather than "leveled always wins".
	const rr = 0.1
	comp := p.Space().MustParam(config.ParamCompactionStrategy)

	t := Table{
		Title: fmt.Sprintf("Tuned configuration vs scan share (RR=%.0f%% of point ops)", rr*100),
		Header: []string{
			"scan ratio", "tuned compaction", "default", "tuned", "gain", "surrogate leveled edge",
		},
	}
	var edges, gains []float64
	var topStrategy string
	seed := p.Opts.Env.Seed + 130_000
	for _, scan := range scanRatios {
		w := core.Workload{ReadRatio: rr, ScanRatio: scan}
		seed += 1000
		rec, tuned, err := p.RecommendAndMeasure(w, seed)
		if err != nil {
			return Report{}, err
		}
		def, err := p.MeasureDefault(w, seed+1)
		if err != nil {
			return Report{}, err
		}
		topStrategy = comp.ValueName(rec.Config[config.ParamCompactionStrategy])

		// The surrogate's own view of the compaction choice: predicted
		// throughput with the strategy forced each way, everything else
		// held at the tuned values. A positive edge means the model
		// believes Leveled wins this shape.
		st := rec.Config.Clone()
		st[config.ParamCompactionStrategy] = config.CompactionSizeTiered
		lcs := rec.Config.Clone()
		lcs[config.ParamCompactionStrategy] = config.CompactionLeveled
		predST, err := p.Surrogate().Predict(w, st)
		if err != nil {
			return Report{}, err
		}
		predLCS, err := p.Surrogate().Predict(w, lcs)
		if err != nil {
			return Report{}, err
		}
		edge := (predLCS - predST) / predST
		edges = append(edges, edge)
		gain := (tuned - def) / def
		gains = append(gains, gain)

		t.Rows = append(t.Rows, []string{
			pct(scan), topStrategy, f0(def), f0(tuned), pct(gain), pct(edge),
		})
	}

	first, last := edges[0], edges[len(edges)-1]
	return Report{
		ID:     "workloadmix",
		Title:  "Workload-shape-aware tuning: compaction strategy vs scan share",
		Tables: []Table{t},
		Notes: []string{
			fmt.Sprintf("measured: mean gain over default across the sweep %s", pct(stats.Mean(gains))),
			"the scan axis joins RR in the characterization vector; the preference is discovered from collected samples, not hard-coded",
		},
		Claims: []Claim{
			gate(topStrategy == "Leveled", "the tuner recommends Leveled at the top of the scan sweep (%s at scan ratio %s)",
				topStrategy, pct(scanRatios[len(scanRatios)-1])),
			gate(last > first, "the surrogate's leveled edge grows across the scan sweep (%s -> %s)", pct(first), pct(last)),
		},
	}, nil
}
