package ga

import (
	"fmt"
	"math"
	"math/rand"
)

// The simulated-annealing searcher's settings. Annealing is an
// alternative stochastic optimizer over the same bounded problems the GA
// solves. It exists for the search-strategy ablation: the paper chose a
// GA for robustness to local maxima; annealing is the classic
// single-chain competitor.
const (
	// annealSteps is the number of proposal evaluations, roughly the
	// GA's evaluation budget.
	annealSteps = 3300
	// annealTempInit and annealTempFinal bound the exponential cooling
	// schedule, in units of the fitness function.
	annealTempInit, annealTempFinal float64 = 0.1, 1e-4
	// annealStepSigma is the proposal step as a fraction of each gene
	// range.
	annealStepSigma = 0.15
)

// Anneal maximizes p.Fitness with simulated annealing, its chain driven
// by seed, and returns the best candidate found. Like Run, it repairs
// every proposal before scoring it, so it makes annealSteps+1
// evaluations.
func Anneal(p Problem, seed int64) (Result, error) {
	if len(p.Bounds) == 0 || p.Fitness == nil {
		return Result{}, fmt.Errorf("ga: anneal: a problem needs bounds and a Fitness function")
	}
	rng := rand.New(rand.NewSource(seed))
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
	cooling := math.Pow(annealTempFinal/annealTempInit, 1/float64(annealSteps))
	temp := annealTempInit * math.Max(1, math.Abs(curScore))

	proposal := make([]float64, len(cur))
	for step := 0; step < annealSteps; step++ {
		copy(proposal, cur)
		// Perturb one gene per step; occasionally reset it to explore.
		i := rng.Intn(len(p.Bounds))
		b := p.Bounds[i]
		span := b.Max - b.Min
		if span > 0 {
			if rng.Float64() < 0.1 {
				proposal[i] = b.Min + rng.Float64()*span
			} else {
				proposal[i] += rng.NormFloat64() * annealStepSigma * span
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
