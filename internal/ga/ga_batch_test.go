package ga

import (
	"errors"
	"reflect"
	"testing"

	"rafiki/internal/obs"
)

func batchTestProblem() ([]Bound, func([]float64) (float64, error)) {
	bounds := []Bound{
		{Min: -5, Max: 5},
		{Min: 0, Max: 10, Integer: true},
		{Min: -1, Max: 1},
	}
	fitness := func(g []float64) (float64, error) {
		return -(g[0]-1.5)*(g[0]-1.5) - (g[1]-4)*(g[1]-4) - g[2]*g[2], nil
	}
	return bounds, fitness
}

// TestBatchFitnessEquivalence is the rng-stream contract behind the
// batch path: scoring whole broods via BatchFitness must reproduce the
// individual-at-a-time run exactly — same winner, same history, same
// evaluation count.
func TestBatchFitnessEquivalence(t *testing.T) {
	bounds, fitness := batchTestProblem()
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 15
	opts.Seed = 321

	single, err := Run(Problem{Bounds: bounds, Fitness: fitness}, opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(Problem{
		Bounds: bounds,
		BatchFitness: func(genes [][]float64, out []float64) error {
			for i, g := range genes {
				f, err := fitness(g)
				if err != nil {
					return err
				}
				out[i] = f
			}
			return nil
		},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Errorf("batched result differs from single-eval result:\n%+v\nvs\n%+v", batched, single)
	}
}

func TestBatchEvalCounters(t *testing.T) {
	bounds, fitness := batchTestProblem()
	opts := DefaultOptions()
	opts.Population = 10
	opts.Generations = 5
	opts.Seed = 7
	reg := obs.NewRegistry()
	opts.Obs = reg
	res, err := Run(Problem{Bounds: bounds, Fitness: fitness}, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ga.evaluations"]; got != uint64(res.Evaluations) {
		t.Errorf("ga.evaluations = %d, want %d", got, res.Evaluations)
	}
	// One batch for seeding plus one offspring batch per generation but
	// the last.
	wantBatches := uint64(opts.Generations)
	if got := snap.Counters["ga.batch_evals"]; got != wantBatches {
		t.Errorf("ga.batch_evals = %d, want %d", got, wantBatches)
	}
}

// TestRunAllocGuard pins breeding in place: with a BatchFitness that
// allocates nothing, a 66-generation Run allocates exactly what a
// 2-generation one does — its slabs, its rng and its Result — so a
// generation allocates nothing.
func TestRunAllocGuard(t *testing.T) {
	p := identityProblem(5, true, true)
	allocsFor := func(generations int) float64 {
		opts := DefaultOptions()
		opts.Generations = generations
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocsFor(2), allocsFor(66); long != short {
		t.Errorf("Run allocates %v over 66 generations but %v over 2: a generation allocates", long, short)
	}
}

func TestBatchFitnessErrorPropagates(t *testing.T) {
	bounds, _ := batchTestProblem()
	opts := DefaultOptions()
	opts.Population = 6
	opts.Generations = 3
	boom := errors.New("batch failed")
	if _, err := Run(Problem{
		Bounds:       bounds,
		BatchFitness: func([][]float64, []float64) error { return boom },
	}, opts); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}
