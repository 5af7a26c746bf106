package ga

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
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

// digestResult hashes every bit of a Result: Best (nil distinguished
// from empty), BestFitness, Evaluations and History.
func digestResult(r Result) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if r.Best == nil {
		word(math.MaxUint64)
	}
	word(uint64(len(r.Best)))
	for _, v := range r.Best {
		word(math.Float64bits(v))
	}
	word(math.Float64bits(r.BestFitness))
	word(uint64(r.Evaluations))
	word(uint64(len(r.History)))
	for _, v := range r.History {
		word(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRunBitIdentical pins Run's whole Result, bit for bit, for option
// sets that exercise every branch of a generation: no elites and many,
// never and always crossing over, an odd population, integer and
// continuous genes, Fitness-only and BatchFitness problems, a one-
// generation run and a landscape on which no repair ever improves (Best
// stays nil). The digests were recorded on the GA that allocated a gene
// vector per child, before it bred in place.
func TestRunBitIdentical(t *testing.T) {
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
		want string
	}{
		{"default/batch/continuous", identityProblem(5, false, true), opts(func(*Options) {}), "84c35f5eb75ad2b9"},
		{"elite0/fitness/integer", identityProblem(5, true, false), opts(func(o *Options) { o.Elite = 0 }), "fa727cc28525c925"},
		{"crossover0/batch/integer", identityProblem(4, true, true), opts(func(o *Options) { o.CrossoverProb = 0; o.Generations = 40 }), "a47ef6358b573e56"},
		{"crossover1/fitness/continuous", identityProblem(6, false, false), opts(func(o *Options) { o.CrossoverProb = 1; o.TournamentK = 1 }), "f3792258ffe7dcde"},
		{"oddpop/batch/integer", identityProblem(7, true, true), opts(func(o *Options) { o.Population = 17; o.Elite = 3; o.Generations = 25 }), "c3ff21e0da96c10b"},
		{"onegen/fitness/integer", identityProblem(3, true, false), opts(func(o *Options) { o.Population = 9; o.Generations = 1 }), "a552365b43a4453e"},
		{"neverbetter/batch/continuous", Problem{
			Bounds:       []Bound{{Min: 0, Max: 1}, {Min: -2, Max: 2}},
			BatchFitness: func(_ [][]float64, out []float64) error { clear(out); out[0] = math.Inf(-1); return nil },
		}, opts(func(o *Options) { o.Population = 3; o.Generations = 4 }), "d5581b67a032bea6"},
	}
	for _, tc := range cases {
		res, err := Run(tc.p, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digestResult(res); got != tc.want {
			t.Errorf("%s: Result digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
