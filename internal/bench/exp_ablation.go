package bench

import (
	"fmt"
	"math/rand"

	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
	"rafiki/internal/obs"
	"rafiki/internal/stats"
	"rafiki/internal/tree"
)

// AblationSearch compares Rafiki's GA+surrogate against the measured
// baselines the paper argues against: greedy one-parameter-at-a-time
// tuning (defeated by interdependence, Section 4.6) and budget-matched
// random sampling of real configurations.
func AblationSearch(p *Pipeline) (Report, error) {
	const rr = 0.9
	env := p.Opts.Env
	seed := env.Seed + 130_000

	def, err := p.MeasureDefault(core.RR(rr), seed)
	if err != nil {
		return Report{}, err
	}
	rec, rafiki, err := p.RecommendAndMeasure(core.RR(rr), seed+1)
	if err != nil {
		return Report{}, err
	}
	greedy, err := GreedySearch(p.Collector, p.Space(), core.RR(rr), seed+100)
	if err != nil {
		return Report{}, err
	}
	// Budget-match random search to greedy's real-sample count.
	random, err := RandomSearch(p.Collector, p.Space(), core.RR(rr), greedy.Samples, seed+200)
	if err != nil {
		return Report{}, err
	}

	t := Table{
		Title:  "Search strategies at RR=90% (measured throughput)",
		Header: []string{"strategy", "throughput", "gain over default", "real samples", "surrogate calls"},
		Rows: [][]string{
			{"default", f0(def), "-", "0", "0"},
			{"greedy one-at-a-time", f0(greedy.BestThroughput), pct(greedy.BestThroughput/def - 1), fmt.Sprintf("%d", greedy.Samples), "0"},
			{"random (budget-matched)", f0(random.BestThroughput), pct(random.BestThroughput/def - 1), fmt.Sprintf("%d", random.Samples), "0"},
			{"rafiki (GA+surrogate)", f0(rafiki), pct(rafiki/def - 1), "1", fmt.Sprintf("%d", rec.Evaluations)},
		},
	}
	return Report{
		ID:     "ablation-search",
		Title:  "Search-strategy ablation",
		Tables: []Table{t},
		Claims: []Claim{
			claim(greedy.BestThroughput < rafiki, "greedy tuning is suboptimal because parameter effects interdepend (Figure 6): it ends below Rafiki (%s vs %s)",
				f0(greedy.BestThroughput), f0(rafiki)),
		},
	}, nil
}

// AblationTrainer compares the Bayesian-regularized LM trainer against
// plain gradient descent on the same dataset and splits — the design
// choice Section 3.6.2 motivates.
func AblationTrainer(p *Pipeline) (Report, error) {
	t := Table{
		Title:  "Surrogate trainer ablation (unseen-configuration MAPE %)",
		Header: []string{"trial", "LM + Bayesian regularization", "gradient descent"},
	}
	const trials = 3
	type pair struct{ br, gd float64 }
	pairs, err := runTrials(p, "ablation-trainer", trials, func(trial int, reg *obs.Registry) (pair, error) {
		train, test := splitConfigs(p, 0.25, p.Opts.Env.Seed+int64(trial)*13)

		brCfg := p.Opts.Model
		brCfg.Trainer = nn.TrainerBR
		brCfg.EnsembleSize = 6
		brCfg.Seed = p.Opts.Model.Seed + int64(trial)
		brCfg.Obs = reg
		brEval, err := evalSplit(p, train, test, brCfg)
		if err != nil {
			return pair{}, err
		}

		gdCfg := brCfg
		gdCfg.Trainer = nn.TrainerGD
		gdEval, err := evalSplit(p, train, test, gdCfg)
		if err != nil {
			return pair{}, err
		}
		return pair{br: brEval.MAPE, gd: gdEval.MAPE}, nil
	})
	if err != nil {
		return Report{}, err
	}
	var brSum, gdSum float64
	for trial, pr := range pairs {
		brSum += pr.br
		gdSum += pr.gd
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", trial+1), f1(pr.br), f1(pr.gd),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", f1(brSum / trials), f1(gdSum / trials)})
	return Report{
		ID:     "ablation-trainer",
		Title:  "Bayesian-regularized LM vs gradient descent",
		Tables: []Table{t},
		Claims: []Claim{
			claim(brSum < gdSum, "trainbr-style training suits the small sparse dataset (Section 3.6.2) better than plain gradient descent (mean MAPE %s%% vs %s%%)",
				f1(brSum/trials), f1(gdSum/trials)),
		},
	}, nil
}

// AblationModel reproduces Section 3.7.2's interpretability experiment:
// a single-variable-per-node decision tree, the same tree with linear
// models in its leaves, and the DNN ensemble, all trained on the same
// splits and scored on unseen configurations. The paper found the plain
// tree "woefully inadequate", the linear variant better, and kept the
// DNN for expressivity.
func AblationModel(p *Pipeline) (Report, error) {
	t := Table{
		Title:  "Surrogate model ablation (unseen-configuration MAPE %)",
		Header: []string{"trial", "decision tree", "tree + linear leaves", "DNN ensemble"},
	}
	const trials = 3
	cells, err := runTrials(p, "ablation-model", trials, func(trial int, reg *obs.Registry) ([3]float64, error) {
		var cell [3]float64
		train, test := splitConfigs(p, 0.25, p.Opts.Env.Seed+int64(trial)*13)
		trainX, trainY, err := train.Features(p.Space())
		if err != nil {
			return cell, err
		}
		testX, testY, err := test.Features(p.Space())
		if err != nil {
			return cell, err
		}

		evalTree := func(linear bool) (float64, error) {
			opts := tree.DefaultOptions()
			opts.LinearLeaves = linear
			if linear {
				// Leaf linear models need enough points per leaf to fit
				// seven coefficients without memorizing noise.
				opts.MinLeaf = 20
				opts.Ridge = 0.05
			}
			tr, err := tree.Fit(trainX, trainY, opts)
			if err != nil {
				return 0, err
			}
			preds := make([]float64, len(testX))
			for i, x := range testX {
				preds[i], err = tr.Predict(x)
				if err != nil {
					return 0, err
				}
			}
			return stats.MAPE(preds, testY)
		}
		plain, err := evalTree(false)
		if err != nil {
			return cell, err
		}
		linear, err := evalTree(true)
		if err != nil {
			return cell, err
		}

		dnnCfg := p.Opts.Model
		dnnCfg.EnsembleSize = 6
		dnnCfg.Seed = p.Opts.Model.Seed + int64(trial)
		dnnCfg.Obs = reg
		dnnEval, err := evalSplit(p, train, test, dnnCfg)
		if err != nil {
			return cell, err
		}
		return [3]float64{plain, linear, dnnEval.MAPE}, nil
	})
	if err != nil {
		return Report{}, err
	}
	var sums [3]float64
	for trial, cell := range cells {
		for i, v := range cell {
			sums[i] += v
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", trial+1), f1(cell[0]), f1(cell[1]), f1(cell[2]),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", f1(sums[0] / trials), f1(sums[1] / trials), f1(sums[2] / trials)})
	return Report{
		ID:     "ablation-model",
		Title:  "Interpretable models vs the DNN surrogate",
		Tables: []Table{t},
		Notes: []string{
			"paper (Section 3.7.2): the single-variable decision tree was woefully inadequate; linear-combination nodes improved it; the DNN was kept for expressivity at the cost of interpretability",
		},
		Claims: []Claim{
			claim(sums[2] < min(sums[0], sums[1]), "the DNN ensemble predicts better than either tree (mean MAPE %s%% vs %s%% plain, %s%% linear leaves)",
				f1(sums[2]/trials), f1(sums[0]/trials), f1(sums[1]/trials)),
			claim(sums[1] < sums[0], "linear leaves improve on the plain tree (mean MAPE %s%% vs %s%%)", f1(sums[1]/trials), f1(sums[0]/trials)),
		},
	}, nil
}

// AblationSurrogateSearch compares stochastic searchers over the SAME
// trained surrogate: the paper's GA, simulated annealing, and uniform
// random sampling, all budgeted to roughly the same evaluation count.
func AblationSurrogateSearch(p *Pipeline) (Report, error) {
	const rr = 0.9
	problem, err := p.Surrogate().Problem(core.RR(rr))
	if err != nil {
		return Report{}, err
	}

	gaRes, err := ga.Run(problem, p.Opts.GA)
	if err != nil {
		return Report{}, err
	}
	saRes, err := ga.Anneal(problem, p.Opts.GA.Seed)
	if err != nil {
		return Report{}, err
	}

	// Random baseline with the GA's budget.
	rng := rand.New(rand.NewSource(p.Opts.GA.Seed + 7))
	var randBest float64
	var randGenes []float64
	for i := 0; i < gaRes.Evaluations; i++ {
		genes := make([]float64, len(problem.Bounds))
		for j, b := range problem.Bounds {
			genes[j] = b.Min + rng.Float64()*(b.Max-b.Min)
		}
		genes = ga.Repair(genes, problem.Bounds)
		v, err := problem.Fitness(genes)
		if err != nil {
			return Report{}, err
		}
		if v > randBest {
			randBest = v
			randGenes = genes
		}
	}

	measure := func(genes []float64, seed int64) (float64, error) {
		cfg, err := p.Space().ConfigFromVector(genes)
		if err != nil {
			return 0, err
		}
		return p.Collector.Sample(core.RR(rr), cfg, seed)
	}
	seed := p.Opts.Env.Seed + 140_000
	gaMeasured, err := measure(gaRes.Best, seed)
	if err != nil {
		return Report{}, err
	}
	saMeasured, err := measure(saRes.Best, seed+1)
	if err != nil {
		return Report{}, err
	}
	randMeasured, err := measure(randGenes, seed+2)
	if err != nil {
		return Report{}, err
	}

	t := Table{
		Title:  "Searchers over the same surrogate (RR=90%)",
		Header: []string{"searcher", "surrogate best", "measured", "evaluations"},
		Rows: [][]string{
			{"genetic algorithm", f0(gaRes.BestFitness), f0(gaMeasured), fmt.Sprintf("%d", gaRes.Evaluations)},
			{"simulated annealing", f0(saRes.BestFitness), f0(saMeasured), fmt.Sprintf("%d", saRes.Evaluations)},
			{"random sampling", f0(randBest), f0(randMeasured), fmt.Sprintf("%d", gaRes.Evaluations)},
		},
	}
	return Report{
		ID:     "ablation-surrogate-search",
		Title:  "GA vs annealing vs random over the trained surrogate",
		Tables: []Table{t},
		Notes: []string{
			"the paper picked a GA as a robust stochastic searcher (Section 3.7.2); this checks the choice against budget-matched alternatives",
			"the claim judges the search on the function it searches; the measured column adds the surrogate's prediction error, which no searcher controls",
		},
		Claims: []Claim{
			claim(gaRes.BestFitness >= randBest, "the GA's surrogate best is at least random sampling's at an equal evaluation count (%s vs %s over %d evaluations)",
				f0(gaRes.BestFitness), f0(randBest), gaRes.Evaluations),
		},
	}, nil
}
