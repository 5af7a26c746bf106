package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rafiki/internal/ga"
	"rafiki/internal/par"
)

// TestSearchAllocGuard pins what a warm recommendation search allocates
// at the paper's GA sizing (3 170 surrogate evaluations): the problem,
// the GA's slabs and rng, and the decoded Config — nothing per
// generation, nothing per candidate, nothing per prediction. Fanning
// each brood out over two workers adds nothing: par's team and recycled
// per-call state make a warm fork-join allocation-free, so both worker
// counts share one ceiling.
func TestSearchAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	sur := preparedTuner(t).Surrogate()
	const ceiling = 94
	for _, workers := range []int{1, 2} {
		sur.Model.Workers = workers
		search := func() {
			if _, err := sur.Optimize(RR(0.6), ga.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		search()
		allocs := testing.AllocsPerRun(5, search)
		if allocs > ceiling {
			t.Errorf("workers=%d: a warm search allocates %v times, ceiling %v", workers, allocs, ceiling)
		}
		t.Logf("workers=%d: %v allocations per search", workers, allocs)
	}
}

// TestRecommendConcurrentMatchesSerial shares one model between four
// goroutines, each recommending and batch-predicting while the others
// do, and holds every result to a serial run's: inference scratch comes
// from the model's pool, never from state two calls could share.
func TestRecommendConcurrentMatchesSerial(t *testing.T) {
	tuner := preparedTuner(t)
	sur := tuner.Surrogate()
	sur.Model.Workers = 2
	xs, _, err := tuner.Dataset().Features(tuner.Space())
	if err != nil {
		t.Fatal(err)
	}
	workloads := []Workload{RR(0.1), RR(0.5), RR(0.7), RR(0.95)}
	wantRecs := make([]OptimizeResult, len(workloads))
	for i, w := range workloads {
		if wantRecs[i], err = tuner.Recommend(w); err != nil {
			t.Fatal(err)
		}
	}
	wantPreds := make([]float64, len(xs))
	if err := sur.Model.PredictBatchInto(wantPreds, xs); err != nil {
		t.Fatal(err)
	}
	err = par.Do(4, par.Options{Workers: 4}, func(g int) error {
		preds := make([]float64, len(xs))
		for rep := range len(workloads) {
			i := (g + rep) % len(workloads)
			rec, err := tuner.Recommend(workloads[i])
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(rec, wantRecs[i]) {
				return fmt.Errorf("goroutine %d: Recommend(%+v) = %+v, serial %+v", g, workloads[i], rec, wantRecs[i])
			}
			if err := sur.Model.PredictBatchInto(preds[:len(xs)-i], xs[i:]); err != nil {
				return err
			}
			for r, p := range preds[:len(xs)-i] {
				if math.Float64bits(p) != math.Float64bits(wantPreds[i+r]) {
					return fmt.Errorf("goroutine %d: row %d predicted %v, serial %v", g, i+r, p, wantPreds[i+r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
