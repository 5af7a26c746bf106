package bench

import (
	"testing"

	"rafiki/internal/core"
)

// TestWorkloadMixPrefersLeveledAsScansRise is the tentpole's tuning
// acceptance: trained over a read-ratio x scan-ratio grid, the
// surrogate+GA must discover — with no compaction-specific code
// anywhere in the pipeline — that leveled compaction wins once range
// scans enter a write-heavy mix, because scans pay per overlapping
// SSTable and size-tiered accumulates overlap. The full-size form of
// the same gate is `cmd/experiments -only workloadmix` (see
// EXPERIMENTS.md for its measured flip at 20% scans); this test runs
// it at unit scale, with the grid and sweep cut to the write-heavy
// corner the claim is about.
func TestWorkloadMixPrefersLeveledAsScansRise(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-mix pipeline test is slow")
	}
	if raceEnabled {
		t.Skip("the discovery gate needs more ops per sample than the race budget allows")
	}
	opts := tinyPipelineOptions()
	opts.Collect.Workloads = []core.Workload{
		{ReadRatio: 0.1, ScanRatio: 0},
		{ReadRatio: 0.1, ScanRatio: 0.2},
		{ReadRatio: 0.1, ScanRatio: 0.4},
		{ReadRatio: 0.9, ScanRatio: 0},
		{ReadRatio: 0.9, ScanRatio: 0.2},
		{ReadRatio: 0.9, ScanRatio: 0.4},
	}
	p, err := NewCassandraPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := workloadMixReport(p, []float64{0, 0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("report shape: %+v", rep)
	}
	// The gates assert the discovery: Leveled at the top of the sweep,
	// and a widening surrogate edge.
	if len(rep.Claims) != 2 {
		t.Fatalf("claims = %+v, want the two gates", rep.Claims)
	}
	for _, c := range rep.Claims {
		if !c.Gate || !c.Holds {
			t.Errorf("workload-mix gate failed: %+v\n%s", c, rep.Render())
		}
	}
}

// TestMixCollectionGrid pins the experiment's training grid: the full
// cross product of read ratios and scan ratios, every point valid,
// with both axes actually varying (a degenerate grid could never teach
// the surrogate the scan axis).
func TestMixCollectionGrid(t *testing.T) {
	grid := MixCollectionGrid()
	if len(grid) != 12 {
		t.Fatalf("grid size %d, want 12", len(grid))
	}
	rrs, scans := map[float64]bool{}, map[float64]bool{}
	for _, w := range grid {
		if err := w.Validate(); err != nil {
			t.Errorf("grid point %v invalid: %v", w, err)
		}
		rrs[w.ReadRatio] = true
		scans[w.ScanRatio] = true
	}
	if len(rrs) < 3 || len(scans) < 4 {
		t.Errorf("grid spans %d read ratios x %d scan ratios, want 3 x 4", len(rrs), len(scans))
	}
}
