package ga

import (
	"fmt"
	"math"
	"math/rand"
)

// AnnealOptions tunes the simulated-annealing searcher, an alternative
// stochastic optimizer over the same bounded problems the GA solves.
// It exists for the search-strategy ablation: the paper chose a GA for
// robustness to local maxima; annealing is the classic single-chain
// competitor.
type AnnealOptions struct {
	// Steps is the number of proposal evaluations.
	Steps int
	// TempInit and TempFinal bound the exponential cooling schedule, in
	// units of the fitness function.
	TempInit, TempFinal float64
	// StepSigma is the proposal step as a fraction of each gene range.
	StepSigma float64
	// Seed drives the chain.
	Seed int64
}

// DefaultAnnealOptions roughly matches the GA's evaluation budget.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{
		Steps:     3300,
		TempInit:  0.1,
		TempFinal: 1e-4,
		StepSigma: 0.15,
	}
}

// Anneal maximizes p.Fitness with simulated annealing and returns the
// best candidate found. Like Run, it repairs every proposal before
// scoring it, so it makes Steps+1 evaluations.
func Anneal(p Problem, opts AnnealOptions) (Result, error) {
	if len(p.Bounds) == 0 || p.Fitness == nil {
		return Result{}, fmt.Errorf("ga: anneal: a problem needs bounds and a Fitness function")
	}
	if opts.Steps < 1 {
		return Result{}, fmt.Errorf("ga: anneal: steps must be >= 1, got %d", opts.Steps)
	}
	if opts.TempInit <= 0 || opts.TempFinal <= 0 || opts.TempFinal > opts.TempInit {
		return Result{}, fmt.Errorf("ga: anneal: invalid temperature schedule [%v, %v]", opts.TempInit, opts.TempFinal)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var res Result

	cur := make([]float64, len(p.Bounds))
	for i, b := range p.Bounds {
		cur[i] = b.Min + rng.Float64()*(b.Max-b.Min)
	}
	repairInto(cur, cur, p.Bounds)
	curScore, err := p.Fitness(cur)
	if err != nil {
		return Result{}, err
	}
	res.Evaluations++
	res.Best, res.BestFitness = append([]float64(nil), cur...), curScore

	// Fitness units vary by problem, so temperatures are relative to the
	// first score's magnitude.
	cooling := math.Pow(opts.TempFinal/opts.TempInit, 1/float64(opts.Steps))
	temp := opts.TempInit * math.Max(1, math.Abs(curScore))

	proposal := make([]float64, len(cur))
	for step := 0; step < opts.Steps; step++ {
		copy(proposal, cur)
		// Perturb one gene per step; occasionally reset it to explore.
		i := rng.Intn(len(p.Bounds))
		b := p.Bounds[i]
		span := b.Max - b.Min
		if span > 0 {
			if rng.Float64() < 0.1 {
				proposal[i] = b.Min + rng.Float64()*span
			} else {
				proposal[i] += rng.NormFloat64() * opts.StepSigma * span
			}
		}
		repairInto(proposal, proposal, p.Bounds)
		propScore, err := p.Fitness(proposal)
		if err != nil {
			return Result{}, err
		}
		res.Evaluations++

		if propScore >= curScore || rng.Float64() < math.Exp((propScore-curScore)/temp) {
			cur, proposal = proposal, cur
			curScore = propScore
			if curScore > res.BestFitness {
				res.Best, res.BestFitness = append(res.Best[:0], cur...), curScore
			}
		}
		res.History = append(res.History, curScore)
		temp *= cooling
	}
	return res, nil
}
