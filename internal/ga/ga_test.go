package ga

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func sphereProblem(dim int) Problem {
	bounds := make([]Bound, dim)
	for i := range bounds {
		bounds[i] = Bound{Min: -10, Max: 10}
	}
	return Problem{
		Bounds: bounds,
		// Maximum 100 at the point (1, 2, 3, ...).
		Fitness: func(x []float64) (float64, error) {
			var s float64
			for i, v := range x {
				d := v - float64(i+1)
				s += d * d
			}
			return 100 - s, nil
		},
	}
}

func TestRunFindsSphereOptimum(t *testing.T) {
	res, err := Run(sphereProblem(3), Options{
		Population:    40,
		Generations:   60,
		CrossoverProb: 0.85,
		MutationProb:  0.2,
		MutationSigma: 0.1,
		Elite:         2,
		TournamentK:   3,
		PenaltyCoeff:  2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < 99 {
		t.Errorf("best fitness %v, want >= 99", res.BestFitness)
	}
	want := []float64{1, 2, 3}
	for i, v := range res.Best {
		if math.Abs(v-want[i]) > 0.5 {
			t.Errorf("gene %d = %v, want ~%v", i, v, want[i])
		}
	}
}

func TestRunRespectsIntegerConstraints(t *testing.T) {
	p := Problem{
		Bounds: []Bound{
			{Min: 0, Max: 10, Integer: true},
			{Min: 0, Max: 1},
		},
		// Optimum at x0=7.4 unconstrained; integrality forces 7.
		Fitness: func(x []float64) (float64, error) {
			return -(x[0] - 7.4) * (x[0] - 7.4), nil
		},
	}
	res, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != math.Round(res.Best[0]) {
		t.Errorf("integer gene = %v, not integral", res.Best[0])
	}
	if res.Best[0] != 7 {
		t.Errorf("integer optimum = %v, want 7", res.Best[0])
	}
}

func TestRunKeepsBestWithinBounds(t *testing.T) {
	p := Problem{
		Bounds: []Bound{{Min: 0, Max: 5}},
		// Unbounded improvement toward +inf; the box must clip it.
		Fitness: func(x []float64) (float64, error) { return x[0], nil },
	}
	res, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] < 0 || res.Best[0] > 5 {
		t.Errorf("best %v escaped bounds", res.Best[0])
	}
	if res.Best[0] < 4.5 {
		t.Errorf("best %v should approach the boundary 5", res.Best[0])
	}
}

func TestRunEvaluationBudget(t *testing.T) {
	opts := DefaultOptions()
	res, err := Run(sphereProblem(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Population + (generations-1)*(population-elite) offspring +
	// one repaired evaluation per generation.
	upper := opts.Population*opts.Generations + opts.Generations + opts.Population
	if res.Evaluations > upper {
		t.Errorf("evaluations %d exceed budget %d", res.Evaluations, upper)
	}
	// Section 4.8: roughly 3.3k evaluations with default sizing.
	if res.Evaluations < 2500 || res.Evaluations > 4200 {
		t.Errorf("default sizing gives %d evaluations, want ~3350", res.Evaluations)
	}
}

func TestRunHistoryImproves(t *testing.T) {
	res, err := Run(sphereProblem(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != DefaultOptions().Generations {
		t.Fatalf("history length %d", len(res.History))
	}
	first := res.History[0]
	last := res.History[len(res.History)-1]
	if last <= first {
		t.Errorf("no improvement: first %v, last %v", first, last)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(sphereProblem(3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sphereProblem(3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Errorf("same seed diverged: %v vs %v", a.BestFitness, b.BestFitness)
	}
}

func TestRunValidation(t *testing.T) {
	valid := sphereProblem(2)
	tests := []struct {
		name string
		p    Problem
		opts Options
	}{
		{"no bounds", Problem{Fitness: valid.Fitness}, DefaultOptions()},
		{"nil fitness", Problem{Bounds: valid.Bounds}, DefaultOptions()},
		{"inverted bounds", Problem{Bounds: []Bound{{Min: 5, Max: 1}}, Fitness: valid.Fitness}, DefaultOptions()},
		{"tiny population", valid, Options{Population: 1, Generations: 5}},
		{"zero generations", valid, Options{Population: 10}},
		{"elite too large", valid, Options{Population: 10, Generations: 5, Elite: 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.p, tt.opts); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunPropagatesFitnessError(t *testing.T) {
	errBoom := errors.New("boom")
	p := Problem{
		Bounds:  []Bound{{Min: 0, Max: 1}},
		Fitness: func([]float64) (float64, error) { return 0, errBoom },
	}
	if _, err := Run(p, DefaultOptions()); !errors.Is(err, errBoom) {
		t.Errorf("want fitness error, got %v", err)
	}
}

func TestCrossoverInterpolates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := []float64{0, 10}
	b := []float64{10, 20}
	c := make([]float64, len(a))
	for i := 0; i < 100; i++ {
		crossover(rng, c, a, b)
		if c[0] < 0 || c[0] > 10 || c[1] < 10 || c[1] > 20 {
			t.Fatalf("crossover escaped the parents' hull: %v", c)
		}
	}
}

func TestViolation(t *testing.T) {
	bounds := []Bound{{Min: 0, Max: 10, Integer: true}, {Min: 0, Max: 1}}
	tests := []struct {
		name  string
		genes []float64
		want  float64
	}{
		{"feasible", []float64{5, 0.5}, 0},
		{"non-integer", []float64{5.5, 0.5}, 0.5},
		{"below min", []float64{-1, 0.5}, 0.1 + 0}, // 1/10 range, integral
		{"above max", []float64{5, 1.5}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := violation(tt.genes, bounds); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("violation = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRepair(t *testing.T) {
	bounds := []Bound{{Min: 2, Max: 10, Integer: true}, {Min: 0, Max: 1}}
	got := Repair([]float64{1.2, 1.7}, bounds)
	if got[0] != 2 {
		t.Errorf("repaired integer = %v, want 2", got[0])
	}
	if got[1] != 1 {
		t.Errorf("repaired float = %v, want 1", got[1])
	}
	// Rounding happens before clamping: 10.4 -> 10 (feasible).
	got = Repair([]float64{10.4, 0.5}, bounds)
	if got[0] != 10 {
		t.Errorf("repair(10.4) = %v, want 10", got[0])
	}
}

// Property: Repair output always has zero violation.
func TestRepairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := []Bound{
		{Min: -3, Max: 7, Integer: true},
		{Min: 0.5, Max: 0.9},
		{Min: 0, Max: 0, Integer: true},
	}
	for i := 0; i < 1000; i++ {
		genes := []float64{
			rng.NormFloat64() * 20,
			rng.NormFloat64() * 20,
			rng.NormFloat64() * 20,
		}
		r := Repair(genes, bounds)
		if v := violation(r, bounds); v != 0 {
			t.Fatalf("Repair(%v) = %v still violates by %v", genes, r, v)
		}
	}
}

func TestRunMultimodalAvoidsLocalMaxima(t *testing.T) {
	// A deceptive landscape: a broad local hill at x=-5 (height 50) and
	// a narrow global peak at x=8 (height 100). Greedy hill-climbing
	// from most starts finds the broad hill; the GA should find the
	// narrow peak — the paper's motivation for a stochastic searcher.
	p := Problem{
		Bounds: []Bound{{Min: -10, Max: 10}},
		Fitness: func(x []float64) (float64, error) {
			broad := 50 * math.Exp(-(x[0]+5)*(x[0]+5)/20)
			narrow := 100 * math.Exp(-(x[0]-8)*(x[0]-8)/0.5)
			return broad + narrow, nil
		},
	}
	res, err := Run(p, Options{
		Population:    60,
		Generations:   80,
		CrossoverProb: 0.85,
		MutationProb:  0.25,
		MutationSigma: 0.15,
		Elite:         2,
		TournamentK:   3,
		PenaltyCoeff:  2,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best[0]-8) > 0.5 {
		t.Errorf("GA stuck at %v, want the global peak near 8", res.Best[0])
	}
}
