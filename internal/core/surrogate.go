package core

import (
	"fmt"
	"slices"

	"rafiki/internal/config"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
)

// Surrogate is the trained performance model fnet(RR, C) of Equation
// (2), plus the configuration-space metadata needed to encode and
// decode feature vectors.
type Surrogate struct {
	// Model is the underlying pruned DNN ensemble.
	Model *nn.Model
	// Space supplies the key-parameter encoding.
	Space *config.Space
	// Scans records that the training data had range scans, so the
	// model's inputs carry ScanRatio after ReadRatio. False, the zero
	// value, means the paper's RR-only inputs.
	Scans bool
}

// TrainSurrogate fits the DNN ensemble to a dataset.
func TrainSurrogate(ds Dataset, space *config.Space, cfg nn.ModelConfig) (*Surrogate, error) {
	xs, ys, err := ds.Features(space)
	if err != nil {
		return nil, err
	}
	model, err := nn.Fit(xs, ys, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: training surrogate: %w", err)
	}
	return &Surrogate{Model: model, Space: space, Scans: ds.hasScans()}, nil
}

// checkFits rejects a surrogate trained for another datastore, key
// layout or feature encoding than space, where it would silently
// predict garbage. The model must be as wide as the workload axes the
// surrogate records plus one input per key parameter.
func (s *Surrogate) checkFits(space *config.Space) error {
	if s.Space.Name != space.Name {
		return fmt.Errorf("core: surrogate was trained for %q, not %q", s.Space.Name, space.Name)
	}
	if !slices.Equal(s.Space.KeyNames, space.KeyNames) {
		return fmt.Errorf("core: surrogate key parameters %v do not match the space's %v", s.Space.KeyNames, space.KeyNames)
	}
	axes := len(RR(0).vector(s.Scans))
	if want := axes + len(space.KeyNames); s.Model.InputWidth() != want {
		return fmt.Errorf("core: surrogate expects %d features, space needs %d (%d workload features + %d key parameters)",
			s.Model.InputWidth(), want, axes, len(space.KeyNames))
	}
	return nil
}

// workloadVector encodes w on the axes the surrogate was trained on. A
// workload with scans has no encoding on an RR-only surrogate.
func (s *Surrogate) workloadVector(w Workload) ([]float64, error) {
	if w.ScanRatio != 0 && !s.Scans {
		return nil, fmt.Errorf("core: scan ratio %v on a surrogate trained without scans", w.ScanRatio)
	}
	return w.vector(s.Scans), nil
}

// featureVector is one model input row: w's axes, then cfg's key
// parameters.
func (s *Surrogate) featureVector(w Workload, cfg config.Config) ([]float64, error) {
	prefix, err := s.workloadVector(w)
	if err != nil {
		return nil, err
	}
	return s.Space.FeatureVector(prefix, cfg)
}

// Predict returns the surrogate's throughput estimate for a workload
// and configuration. One call costs microseconds, which is what makes
// GA search over the surrogate ~4 orders of magnitude faster than
// benchmarking real configurations (Section 4.8).
func (s *Surrogate) Predict(w Workload, cfg config.Config) (float64, error) {
	vec, err := s.featureVector(w, cfg)
	if err != nil {
		return 0, err
	}
	return s.Model.Predict(vec)
}

// OptimizeResult is the outcome of a configuration search.
type OptimizeResult struct {
	// Config is the recommended (feasible) configuration.
	Config config.Config
	// Predicted is the surrogate's throughput estimate for Config.
	Predicted float64
	// Evaluations counts surrogate calls spent searching.
	Evaluations int
	// History is the best surrogate value per GA generation.
	History []float64
}

// Problem is the search problem a recommendation at w solves (Equation
// 4): maximize the surrogate's predicted throughput over the key
// parameters' ranges. Every searcher over the surrogate, Optimize's GA
// included, runs on this one construction.
func (s *Surrogate) Problem(w Workload) (problem ga.Problem, err error) {
	prefix, err := s.workloadVector(w)
	if err != nil {
		return problem, err
	}
	keys, err := s.Space.KeyParams()
	if err != nil {
		return problem, err
	}
	bounds := make([]ga.Bound, len(keys))
	for i, p := range keys {
		bounds[i] = ga.Bound{
			Min:     p.Min,
			Max:     p.Max,
			Integer: p.Kind != config.Continuous,
		}
	}
	// The GA prefers BatchFitness: one ensemble batch call per brood, its
	// rows (workload vector, then genes) one slab reused across
	// generations. The scalar Fitness is the single-candidate fallback.
	width := len(prefix) + len(keys)
	var rows [][]float64
	return ga.Problem{
		Bounds: bounds,
		Fitness: func(genes []float64) (float64, error) {
			return s.Model.Predict(append(append(make([]float64, 0, width), prefix...), genes...))
		},
		BatchFitness: func(genes [][]float64, out []float64) error {
			if len(rows) < len(genes) {
				slab := make([]float64, len(genes)*width)
				rows = make([][]float64, len(genes))
				for i := range rows {
					rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
					copy(rows[i], prefix)
				}
			}
			for i, g := range genes {
				if len(g) != len(keys) {
					return fmt.Errorf("core: candidate %d has %d genes, want %d", i, len(g), len(keys))
				}
				copy(rows[i][len(prefix):], g)
			}
			return s.Model.PredictBatchInto(out, rows[:len(genes)])
		},
	}, nil
}

// Optimize searches the key-parameter space for the configuration that
// maximizes predicted throughput at the given workload, using the
// genetic algorithm of Section 3.7.2.
func (s *Surrogate) Optimize(w Workload, opts ga.Options) (OptimizeResult, error) {
	problem, err := s.Problem(w)
	if err != nil {
		return OptimizeResult{}, err
	}
	res, err := ga.Run(problem, opts)
	if err != nil {
		return OptimizeResult{}, fmt.Errorf("core: GA search: %w", err)
	}
	cfg, err := s.Space.ConfigFromVector(res.Best)
	if err != nil {
		return OptimizeResult{}, err
	}
	return OptimizeResult{
		Config:      cfg,
		Predicted:   res.BestFitness,
		Evaluations: res.Evaluations,
		History:     res.History,
	}, nil
}

// PredictWithStd returns the surrogate's throughput estimate together
// with the ensemble's standard deviation for a workload and
// configuration. High disagreement flags regions the training data
// barely covers — exactly where a single-point prediction is least
// trustworthy and re-tuning on it is most dangerous.
func (s *Surrogate) PredictWithStd(w Workload, cfg config.Config) (mean, std float64, err error) {
	vec, err := s.featureVector(w, cfg)
	if err != nil {
		return 0, 0, err
	}
	return s.Model.PredictWithStd(vec)
}
