package bench

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// PipelineOptions size the shared offline pipeline behind the
// experiments: the environment its samples are taken in, and the
// tuner's own options (Collect: the paper's 11 workloads x 20
// configurations; Model: the paper's [14,4] architecture and 20-net
// ensemble, with training epochs capped so the full suite runs in
// minutes; GA: the configuration search).
type PipelineOptions struct {
	Env Env
	core.TunerOptions
}

// DefaultPipelineOptions mirrors the paper at experiment-suite scale.
func DefaultPipelineOptions() PipelineOptions {
	opts := PipelineOptions{Env: DefaultEnv(), TunerOptions: core.DefaultTunerOptions()}
	opts.Model.BR.Epochs = 60
	opts.Model.Seed = 42
	opts.GA.Seed = 42
	return opts
}

// Pipeline is a prepared core.Tuner — the dataset, surrogate, space and
// Recommend the experiments share are the tuner's — with the collector
// and options it was built from.
type Pipeline struct {
	*core.Tuner
	// Opts echoes the construction options, the tuner's as the tuner
	// resolved them.
	Opts PipelineOptions
	// Collector benchmarks (workload, config) points.
	Collector core.Collector
}

// NewCassandraPipeline collects the Cassandra dataset and trains the
// surrogate.
func NewCassandraPipeline(opts PipelineOptions) (*Pipeline, error) {
	return newPipeline(opts, config.Cassandra())
}

// NewScyllaPipeline is the ScyllaDB variant (Section 4.10's key set).
func NewScyllaPipeline(opts PipelineOptions) (*Pipeline, error) {
	return newPipeline(opts, config.ScyllaDB())
}

func newPipeline(opts PipelineOptions, space *config.Space) (*Pipeline, error) {
	if err := opts.Env.Validate(); err != nil {
		return nil, err
	}
	collector := opts.Env.Sampler
	collector.Space = space
	// The experiments tune the space's published key parameters (Figure
	// 5 re-derives them on its own). The environment's registry and its
	// one worker knob become the tuner's, which carries them into every
	// stage.
	opts.SkipIdentify = true
	if opts.Obs == nil {
		opts.Obs = opts.Env.Obs
	}
	if opts.Collect.Workers == 0 {
		opts.Collect.Workers = opts.Env.Workers
	}
	if opts.Model.Workers == 0 {
		opts.Model.Workers = opts.Env.Workers
	}
	tuner, err := core.NewTuner(collector, space, opts.TunerOptions)
	if err != nil {
		return nil, err
	}
	if err := tuner.Prepare(); err != nil {
		return nil, fmt.Errorf("bench: pipeline: %w", err)
	}
	opts.TunerOptions = tuner.Options()
	return &Pipeline{Tuner: tuner, Opts: opts, Collector: collector}, nil
}

// runTrials fans n independent experiment trials across the
// environment's workers (par.Staged: trial-ordered results, one obs
// stage per trial), so reports and telemetry are identical for any
// worker count.
func runTrials[T any](p *Pipeline, name string, n int, trial func(trial int, reg *obs.Registry) (T, error)) ([]T, error) {
	return par.Staged(n, par.Options{Workers: p.Opts.Env.Workers, Name: "bench." + name, Obs: p.Opts.Obs}, trial)
}

// MeasureDefault benchmarks the default configuration at w.
func (p *Pipeline) MeasureDefault(w core.Workload, seed int64) (float64, error) {
	return p.Collector.Sample(w, config.Config{}, seed)
}

// RecommendAndMeasure searches for a configuration and benchmarks it
// for real, returning (recommendation, measured throughput).
func (p *Pipeline) RecommendAndMeasure(w core.Workload, seed int64) (core.OptimizeResult, float64, error) {
	rec, err := p.Recommend(w)
	if err != nil {
		return core.OptimizeResult{}, 0, err
	}
	tput, err := p.Collector.Sample(w, rec.Config, seed)
	if err != nil {
		return core.OptimizeResult{}, 0, err
	}
	return rec, tput, nil
}
