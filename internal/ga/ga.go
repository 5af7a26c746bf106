// Package ga implements the real-coded genetic algorithm Rafiki uses to
// search the configuration space over the trained surrogate (Section
// 3.7.2): uniform-random initialization within bounds, tournament
// selection with elitism, the paper's random-weighted-average
// interpolating crossover and gaussian mutation. Constraints (bounds and
// integrality) are met by repair: every candidate is clamped and rounded
// before it is scored, so the population is always feasible and Deb's
// feasibility rules reduce to ranking by fitness, with no penalty
// coefficient to tune.
package ga

import (
	"fmt"
	"math"
	"math/rand"

	"rafiki/internal/obs"
)

// Bound constrains one gene.
type Bound struct {
	// Min and Max are the inclusive limits.
	Min, Max float64
	// Integer marks genes that must take integral values (the paper's
	// integer and categorical parameters).
	Integer bool
}

// Problem is a maximization problem over a bounded real vector.
type Problem struct {
	// Bounds defines the search box, one entry per gene.
	Bounds []Bound
	// Fitness scores a candidate; higher is better. It is only called
	// on feasible vectors: inside Bounds, integral where Integer is set.
	Fitness func([]float64) (float64, error)
	// BatchFitness, when non-nil, scores many candidates at once into
	// out (same length as genes) and is preferred over Fitness for
	// every evaluation the GA makes, seeding and offspring alike; its
	// rows are feasible too. A surrogate-backed problem implements it
	// with one ensemble batch-prediction call, which amortizes
	// normalization and lets the model fan the rows across cores. out[i]
	// must depend only on genes[i], so results are order- and
	// batch-size-independent. The rows are the GA's own slabs, valid
	// only during the call.
	BatchFitness func(genes [][]float64, out []float64) error
}

// Options tunes the search.
type Options struct {
	// Population and Generations size the search. The paper's run uses
	// roughly 3,350 surrogate evaluations per workload.
	Population, Generations int
	// CrossoverProb is the chance a child is produced by crossover
	// rather than cloned from a parent.
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability and
	// MutationSigma the gaussian step as a fraction of the gene range.
	MutationProb, MutationSigma float64
	// Elite is the number of top candidates copied unchanged.
	Elite int
	// TournamentK is the tournament selection size.
	TournamentK int
	// Seed drives the search.
	Seed int64
	// Obs, when non-nil, receives an evaluation counter and one span
	// per generation on the cumulative-evaluations axis.
	Obs *obs.Registry
}

// DefaultOptions sizes the search to about 3.5k evaluations, matching
// Section 4.8.
func DefaultOptions() Options {
	return Options{
		Population:    50,
		Generations:   66,
		CrossoverProb: 0.85,
		MutationProb:  0.15,
		MutationSigma: 0.12,
		Elite:         2,
		TournamentK:   3,
	}
}

// Validate reports the first option Run cannot search with.
func (o Options) Validate() error {
	switch {
	case o.Population < 2:
		return fmt.Errorf("ga: population must be >= 2, got %d", o.Population)
	case o.Generations < 1:
		return fmt.Errorf("ga: generations must be >= 1, got %d", o.Generations)
	case o.Elite < 0 || o.Elite >= o.Population:
		return fmt.Errorf("ga: elite %d out of range", o.Elite)
	case o.TournamentK < 1:
		return fmt.Errorf("ga: tournament size must be >= 1, got %d", o.TournamentK)
	case !(o.CrossoverProb >= 0 && o.CrossoverProb <= 1 && o.MutationProb >= 0 && o.MutationProb <= 1):
		return fmt.Errorf("ga: crossover and mutation probabilities %v and %v must lie in [0, 1]", o.CrossoverProb, o.MutationProb)
	case !(o.MutationSigma >= 0):
		return fmt.Errorf("ga: mutation sigma %v must be >= 0", o.MutationSigma)
	}
	return nil
}

// Result reports the best solution found.
type Result struct {
	// Best is the best candidate scored.
	Best []float64
	// BestFitness is the fitness of Best.
	BestFitness float64
	// Evaluations counts fitness-function calls.
	Evaluations int
	// History is the champion's fitness per generation.
	History []float64
}

// Run executes the genetic algorithm.
func Run(p Problem, opts Options) (Result, error) {
	if len(p.Bounds) == 0 || (p.Fitness == nil && p.BatchFitness == nil) {
		return Result{}, fmt.Errorf("ga: a problem needs bounds and a fitness function")
	}
	for i, b := range p.Bounds {
		if b.Max < b.Min {
			return Result{}, fmt.Errorf("ga: gene %d has inverted bounds [%v, %v]", i, b.Min, b.Max)
		}
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}

	s := &search{
		p: p, opts: opts, rng: rand.New(rand.NewSource(opts.Seed)),
		pop: newPopulation(opts.Population, len(p.Bounds)), brood: newPopulation(opts.Population, len(p.Bounds)),
		order: make([]int, opts.Population),
		res:   Result{BestFitness: math.Inf(-1), History: make([]float64, 0, opts.Generations)},
		evals: opts.Obs.Counter("ga.evaluations"), batchEvals: opts.Obs.Counter("ga.batch_evals"),
	}
	for _, g := range s.pop.rows {
		for j, b := range p.Bounds {
			g[j] = b.Min + s.rng.Float64()*(b.Max-b.Min)
		}
		repairInto(g, g, p.Bounds)
	}
	if err := s.eval(s.pop, 0); err != nil {
		return Result{}, err
	}
	for gen := 0; gen < opts.Generations; gen++ {
		start := s.res.Evaluations
		best, err := s.step(gen == opts.Generations-1)
		if err != nil {
			return Result{}, err
		}
		// One span per generation, on the GA's work clock: evaluations.
		if opts.Obs != nil {
			opts.Obs.Record(obs.Span{
				Name: "ga.generation", Start: float64(start), End: float64(s.res.Evaluations), Unit: "evals",
				Attrs: map[string]float64{"gen": float64(gen), "best": best},
			})
		}
	}
	return s.res, nil
}

// population is a generation's candidates: gene vectors as rows of one
// flat slab, with each row's fitness.
type population struct {
	rows   [][]float64
	scores []float64
}

func newPopulation(n, genes int) population {
	slab := make([]float64, n*genes)
	pop := population{rows: make([][]float64, n), scores: make([]float64, n)}
	for i := range pop.rows {
		pop.rows[i] = slab[i*genes : (i+1)*genes : (i+1)*genes]
	}
	return pop
}

// search is one Run's state: the population and the brood are slabs
// swapped every generation, so a generation allocates nothing.
type search struct {
	p                 Problem
	opts              Options
	rng               *rand.Rand
	pop, brood        population
	order             []int
	res               Result
	evals, batchEvals *obs.Counter
}

// eval scores pop's rows from lo in one BatchFitness call (or a Fitness
// loop). Fitness draws no GA randomness, so scoring a brood after
// breeding it keeps one-at-a-time evaluation's rng stream
// (TestBatchFitnessEquivalence).
//
//rafiki:hot
func (s *search) eval(pop population, lo int) error {
	rows, scores := pop.rows[lo:], pop.scores[lo:]
	if s.p.BatchFitness != nil {
		if err := s.p.BatchFitness(rows, scores); err != nil {
			return err
		}
	} else {
		for i, g := range rows {
			f, err := s.p.Fitness(g)
			if err != nil {
				return err
			}
			scores[i] = f
		}
	}
	s.res.Evaluations += len(rows)
	s.evals.Add(uint64(len(rows)))
	s.batchEvals.Inc()
	return nil
}

// step runs one generation: it records the champion and, unless last,
// breeds the next population into the brood (elites, then every child,
// repaired, in one-at-a-time rng order) and scores it. It returns the
// champion's score.
//
//rafiki:hot
func (s *search) step(last bool) (float64, error) {
	pop := s.pop
	champ := 0
	for i, sc := range pop.scores {
		if sc > pop.scores[champ] {
			champ = i
		}
	}
	best := pop.scores[champ]
	s.res.History = append(s.res.History, best)
	if best > s.res.BestFitness {
		s.res.Best = append(s.res.Best[:0], pop.rows[champ]...)
		s.res.BestFitness = best
	}
	if last {
		return best, nil
	}

	brood, order := s.brood, s.order
	for i := range order {
		order[i] = i
	}
	for i := 0; i < s.opts.Elite; i++ {
		bi := i
		for j := i + 1; j < len(order); j++ {
			if pop.scores[order[j]] > pop.scores[order[bi]] {
				bi = j
			}
		}
		order[i], order[bi] = order[bi], order[i]
		copy(brood.rows[i], pop.rows[order[i]])
		brood.scores[i] = pop.scores[order[i]]
	}
	for _, child := range brood.rows[s.opts.Elite:] {
		a := s.tournament()
		if s.rng.Float64() < s.opts.CrossoverProb {
			crossover(s.rng, child, pop.rows[a], pop.rows[s.tournament()])
		} else {
			copy(child, pop.rows[a])
		}
		mutate(s.rng, child, s.p.Bounds, s.opts.MutationProb, s.opts.MutationSigma)
		repairInto(child, child, s.p.Bounds)
	}
	if err := s.eval(brood, s.opts.Elite); err != nil {
		return 0, err
	}
	s.pop, s.brood = brood, pop
	return best, nil
}

// tournament returns the index of the best of TournamentK uniform draws
// from the population.
func (s *search) tournament() int {
	best := s.rng.Intn(len(s.pop.rows))
	for k := 1; k < s.opts.TournamentK; k++ {
		if c := s.rng.Intn(len(s.pop.rows)); s.pop.scores[c] > s.pop.scores[best] {
			best = c
		}
	}
	return best
}

// crossover is the paper's interpolating operator: each child gene is a
// random-weighted average of the parents', keeping children inside the
// population's convex hull (interpolation rather than extrapolation).
// (Section 3.7.2 prints an extra /2 in its example; taken literally
// that would collapse the population toward the origin, so the standard
// weighted-average form is used.)
func crossover(rng *rand.Rand, child, a, b []float64) {
	for i := range child {
		r := rng.Float64()
		child[i] = r*a[i] + (1-r)*b[i]
	}
}

// mutate perturbs genes in place. Most mutations are gaussian steps
// scaled to the gene range; a fraction are uniform resets, which keep
// categorical/integer genes able to jump between basins after the
// interpolating crossover has contracted the population's hull.
func mutate(rng *rand.Rand, genes []float64, bounds []Bound, prob, sigma float64) {
	const resetFraction = 0.3
	for i, b := range bounds {
		if rng.Float64() >= prob {
			continue
		}
		span := b.Max - b.Min
		if span == 0 {
			continue
		}
		if rng.Float64() < resetFraction {
			genes[i] = b.Min + rng.Float64()*span
			continue
		}
		genes[i] += rng.NormFloat64() * sigma * span
	}
}

// Repair clamps genes into bounds and rounds integer genes: the feasible
// vector every searcher scores and the datastore is configured with.
func Repair(genes []float64, bounds []Bound) []float64 {
	out := make([]float64, len(genes))
	repairInto(out, genes, bounds)
	return out
}

// repairInto is Repair into a caller-owned out.
//
//rafiki:hot
func repairInto(out, genes []float64, bounds []Bound) {
	for i, b := range bounds {
		g := genes[i]
		if b.Integer {
			g = math.Round(g)
		}
		if g < b.Min {
			g = b.Min
		}
		if g > b.Max {
			g = b.Max
		}
		out[i] = g
	}
}
