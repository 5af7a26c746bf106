package ga

import (
	"fmt"
	"math"
	"testing"

	"rafiki/internal/golden"
)

// identityFitness is a rugged landscape with interacting genes, so that
// every operator (tournament ties aside) changes which candidate wins.
func identityFitness(g []float64) (float64, error) {
	var f float64
	for i, v := range g {
		f += math.Sin(v*float64(i+1)) - 0.05*v*v
	}
	return f + 0.3*g[0]*g[len(g)-1], nil
}

// identityProblem builds a problem over dim genes, every third integral
// when integer is set, scored through Fitness or through BatchFitness.
func identityProblem(dim int, integer, batch bool) Problem {
	bounds := make([]Bound, dim)
	for i := range bounds {
		bounds[i] = Bound{Min: -4 + float64(i), Max: 6 + 2*float64(i), Integer: integer && i%3 == 0}
	}
	p := Problem{Bounds: bounds}
	if !batch {
		p.Fitness = identityFitness
		return p
	}
	p.BatchFitness = func(genes [][]float64, out []float64) error {
		for i, g := range genes {
			out[i], _ = identityFitness(g)
		}
		return nil
	}
	return p
}

// TestRunGolden pins Run's whole Result for option sets that exercise
// every branch of a generation: no elites and many, never and always
// crossing over, an odd population, integer and continuous genes,
// Fitness-only and BatchFitness problems, a one-generation run and a
// landscape on which no candidate ever beats -Inf (Best stays nil).
func TestRunGolden(t *testing.T) {
	opts := func(edit func(*Options)) Options {
		o := DefaultOptions()
		o.Seed = 27
		edit(&o)
		return o
	}
	cases := []struct {
		name string
		p    Problem
		opts Options
	}{
		{"default/batch/continuous", identityProblem(5, false, true), opts(func(*Options) {})},
		{"elite0/fitness/integer", identityProblem(5, true, false), opts(func(o *Options) { o.Elite = 0 })},
		{"crossover0/batch/integer", identityProblem(4, true, true), opts(func(o *Options) { o.CrossoverProb = 0; o.Generations = 40 })},
		{"crossover1/fitness/continuous", identityProblem(6, false, false), opts(func(o *Options) { o.CrossoverProb = 1; o.TournamentK = 1 })},
		{"oddpop/batch/integer", identityProblem(7, true, true), opts(func(o *Options) { o.Population = 17; o.Elite = 3; o.Generations = 25 })},
		{"onegen/fitness/integer", identityProblem(3, true, false), opts(func(o *Options) { o.Population = 9; o.Generations = 1 })},
		{"neverbetter/batch/continuous", Problem{
			Bounds: []Bound{{Min: 0, Max: 1}, {Min: -2, Max: 2}},
			BatchFitness: func(_ [][]float64, out []float64) error {
				for i := range out {
					out[i] = math.Inf(-1)
				}
				return nil
			},
		}, opts(func(o *Options) { o.Population = 3; o.Generations = 4 })},
	}
	var text []byte
	for _, tc := range cases {
		res, err := Run(tc.p, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		best := fmt.Sprint(res.Best)
		if res.Best == nil {
			best = "nil"
		}
		text = fmt.Appendf(text, "%s\n best %s fitness %v evaluations %d\n history %v\n",
			tc.name, best, res.BestFitness, res.Evaluations, res.History)
	}
	golden.Check(t, "testdata/run.golden", text)
}
