package ga

import (
	"errors"
	"fmt"
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
	// The initial population, then (generations-1) broods less their
	// elites: 3170 with default sizing, Section 4.8's roughly 3.3k.
	want := opts.Population + (opts.Generations-1)*(opts.Population-opts.Elite)
	if res.Evaluations != want {
		t.Errorf("evaluations %d, want %d", res.Evaluations, want)
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
	with := func(edit func(*Options)) Options {
		o := DefaultOptions()
		edit(&o)
		return o
	}
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
		{"zero tournament", valid, with(func(o *Options) { o.TournamentK = 0 })},
		{"negative crossover", valid, with(func(o *Options) { o.CrossoverProb = -0.1 })},
		{"crossover above one", valid, with(func(o *Options) { o.CrossoverProb = 1.5 })},
		{"NaN crossover", valid, with(func(o *Options) { o.CrossoverProb = math.NaN() })},
		{"mutation above one", valid, with(func(o *Options) { o.MutationProb = 2 })},
		{"NaN mutation", valid, with(func(o *Options) { o.MutationProb = math.NaN() })},
		{"negative sigma", valid, with(func(o *Options) { o.MutationSigma = -0.1 })},
		{"NaN sigma", valid, with(func(o *Options) { o.MutationSigma = math.NaN() })},
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

// feasible reports how genes break bounds: a gene outside its box or a
// non-integral integer gene.
func feasible(genes []float64, bounds []Bound) error {
	for i, b := range bounds {
		if g := genes[i]; g < b.Min || g > b.Max || (b.Integer && g != math.Round(g)) {
			return fmt.Errorf("gene %d = %v infeasible for %+v", i, g, b)
		}
	}
	return nil
}

// Property: Repair output is always feasible.
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
		if err := feasible(Repair(genes, bounds), bounds); err != nil {
			t.Fatalf("Repair(%v): %v", genes, err)
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
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best[0]-8) > 0.5 {
		t.Errorf("GA stuck at %v, want the global peak near 8", res.Best[0])
	}
}

// TestFitnessSeesOnlyFeasible pins the searchers' one constraint rule:
// every vector handed to Fitness or BatchFitness, by Run and by Anneal,
// is inside its bounds and integral where the gene is.
func TestFitnessSeesOnlyFeasible(t *testing.T) {
	bounds := identityProblem(7, true, false).Bounds
	var bad error
	check := func(g []float64) {
		if err := feasible(g, bounds); err != nil && bad == nil {
			bad = err
		}
	}
	fitness := func(g []float64) (float64, error) {
		check(g)
		return identityFitness(g)
	}
	batch := func(genes [][]float64, out []float64) error {
		for i, g := range genes {
			out[i], _ = fitness(g)
		}
		return nil
	}
	searches := map[string]func() error{
		"Run/Fitness": func() error {
			_, err := Run(Problem{Bounds: bounds, Fitness: fitness}, DefaultOptions())
			return err
		},
		"Run/BatchFitness": func() error {
			_, err := Run(Problem{Bounds: bounds, BatchFitness: batch}, DefaultOptions())
			return err
		},
		"Anneal/Fitness": func() error {
			_, err := Anneal(Problem{Bounds: bounds, Fitness: fitness}, 0)
			return err
		},
	}
	for name, search := range searches {
		bad = nil
		if err := search(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad != nil {
			t.Errorf("%s scored an infeasible candidate: %v", name, bad)
		}
	}
}
