package core

import (
	"errors"
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// TunerOptions configures the end-to-end Rafiki workflow.
type TunerOptions struct {
	// Identify tunes the ANOVA stage. Set SkipIdentify to reuse the
	// space's published key parameters instead of re-deriving them.
	Identify     IdentifyOptions
	SkipIdentify bool
	// Collect tunes training-data collection.
	Collect CollectOptions
	// Model tunes the surrogate's architecture and training.
	Model nn.ModelConfig
	// GA tunes the online configuration search.
	GA ga.Options
	// Obs, when non-nil, receives stage spans for the whole pipeline
	// (core.identify, core.collect, core.train, core.search), a
	// core.samples counter of benchmark runs spent offline, and is
	// propagated into Collect.Obs, Model.Obs and GA.Obs (unless those
	// are already set) so sample-, trainer- and search-level telemetry
	// lands in one place. The identify stage fans out and stages its
	// telemetry exactly as collect does: under Collect.Workers, into
	// Collect.Obs.
	Obs *obs.Registry
}

// DefaultTunerOptions mirrors the paper end to end.
func DefaultTunerOptions() TunerOptions {
	return TunerOptions{
		Identify: DefaultIdentifyOptions(),
		Collect:  DefaultCollectOptions(),
		Model:    nn.DefaultModelConfig(),
		GA:       ga.DefaultOptions(),
	}
}

// Tuner is the Rafiki middleware: it owns the offline pipeline
// (identify -> collect -> train) and answers online Recommend queries
// from the trained surrogate.
//
// The DBA-level inputs of Section 3.8 map onto the constructor: the
// performance metric is whatever the Collector measures, the parameter
// list with valid ranges is the Space, and the representative trace
// informs the workloads in CollectOptions.
type Tuner struct {
	space     *config.Space
	collector Collector
	opts      TunerOptions

	identification *Identification
	dataset        Dataset
	surrogate      *Surrogate
}

// ErrNotPrepared is returned by online queries before Prepare has run.
var ErrNotPrepared = errors.New("core: tuner is not prepared; run Prepare first")

// NewTuner wires a tuner for a datastore described by space, using c to
// benchmark it during the offline phases.
func NewTuner(c Collector, space *config.Space, opts TunerOptions) (*Tuner, error) {
	if c == nil {
		return nil, errors.New("core: nil collector")
	}
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	// Reject a search Recommend could never run before Prepare spends
	// its samples.
	if err := opts.GA.Validate(); err != nil {
		return nil, fmt.Errorf("core: GA options: %w", err)
	}
	if opts.Obs != nil {
		// Route sample, trainer and search telemetry into the same
		// registry.
		if opts.Collect.Obs == nil {
			opts.Collect.Obs = opts.Obs
		}
		if opts.Model.Obs == nil {
			opts.Model.Obs = opts.Obs
		}
		if opts.GA.Obs == nil {
			opts.GA.Obs = opts.Obs
		}
	}
	return &Tuner{space: space, collector: c, opts: opts}, nil
}

// Prepare runs the offline pipeline: key-parameter identification (or
// adoption of the space's published set), data collection, and
// surrogate training.
func (t *Tuner) Prepare() error {
	samples := t.opts.Obs.Counter("core.samples")
	if !t.opts.SkipIdentify {
		idStart := samples.Value()
		id, err := identifyKeyParameters(t.collector, t.space, t.opts.Identify,
			par.Options{Workers: t.opts.Collect.Workers, Name: "identify", Obs: t.opts.Collect.Obs})
		if err != nil {
			return fmt.Errorf("core: identify stage: %w", err)
		}
		t.identification = &id
		t.space.KeyNames = id.KeyNames
		for _, e := range id.Ranking.Entries {
			samples.Add(uint64(e.N))
		}
		t.recordStage("core.identify", idStart, samples.Value(), "samples",
			map[string]float64{"key_params": float64(len(id.KeyNames))})
	}
	if len(t.space.KeyNames) == 0 {
		return errors.New("core: no key parameters selected")
	}

	colStart := samples.Value()
	ds, err := Collect(t.collector, t.space, t.opts.Collect)
	if err != nil {
		return fmt.Errorf("core: collect stage: %w", err)
	}
	t.dataset = ds
	samples.Add(uint64(len(ds.Samples)))
	t.recordStage("core.collect", colStart, samples.Value(), "samples",
		map[string]float64{"kept": float64(len(ds.Samples)), "dropped": float64(ds.Dropped)})

	// Training runs on the trainer's own work axis: cumulative epochs
	// across all ensemble members (the nn package counts them).
	epochs := t.opts.Obs.Counter("nn.epochs")
	trainStart := epochs.Value()
	sur, err := TrainSurrogate(ds, t.space, t.opts.Model)
	if err != nil {
		return fmt.Errorf("core: train stage: %w", err)
	}
	t.surrogate = sur
	t.recordStage("core.train", trainStart, epochs.Value(), "epochs",
		map[string]float64{"members": float64(sur.Model.Size())})
	return nil
}

// Identification returns the ANOVA outcome, or nil when identification
// was skipped.
func (t *Tuner) Identification() *Identification { return t.identification }

// Dataset returns the collected training data.
func (t *Tuner) Dataset() Dataset { return t.dataset }

// Surrogate returns the trained model, or nil before Prepare.
func (t *Tuner) Surrogate() *Surrogate { return t.surrogate }

// UseSurrogate installs a previously trained (e.g. persisted) surrogate,
// making the tuner ready to Recommend without re-running Prepare. The
// surrogate must fit the tuner's space as LoadSurrogate checks it: the
// same datastore, key-parameter layout and feature encoding.
func (t *Tuner) UseSurrogate(s *Surrogate) error {
	if s == nil || s.Model == nil || s.Space == nil {
		return errors.New("core: nil surrogate")
	}
	if err := s.checkFits(t.space); err != nil {
		return err
	}
	t.surrogate = s
	return nil
}

// Space returns the tuner's configuration space.
func (t *Tuner) Space() *config.Space { return t.space }

// Options returns the tuner's options as NewTuner resolved them: Obs
// carried into every stage's own options.
func (t *Tuner) Options() TunerOptions { return t.opts }

// Recommend searches for the best configuration for the observed
// workload. This is the online stage: it costs only surrogate calls.
func (t *Tuner) Recommend(w Workload) (OptimizeResult, error) {
	if t.surrogate == nil {
		return OptimizeResult{}, ErrNotPrepared
	}
	if err := w.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	evals := t.opts.Obs.Counter("ga.evaluations")
	searchStart := evals.Value()
	res, err := t.surrogate.Optimize(w, t.opts.GA)
	if err != nil {
		return OptimizeResult{}, err
	}
	t.recordStage("core.search", searchStart, evals.Value(), "evals",
		map[string]float64{"read_ratio": w.ReadRatio, "scan_ratio": w.ScanRatio, "predicted": res.Predicted})
	return res, nil
}
