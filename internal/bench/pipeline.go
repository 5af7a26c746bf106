package bench

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
)

// PipelineOptions size the shared offline pipeline behind the
// experiments.
type PipelineOptions struct {
	// Env is the benchmark environment.
	Env Env
	// Collect sizes data collection (the paper's 11 workloads x 20
	// configurations).
	Collect core.CollectOptions
	// Model sizes the surrogate. The experiment default keeps the
	// paper's [14,4] architecture and 20-net ensemble but caps training
	// epochs so the full suite runs in minutes.
	Model nn.ModelConfig
	// GA sizes the configuration search.
	GA ga.Options
}

// DefaultPipelineOptions mirrors the paper at experiment-suite scale.
func DefaultPipelineOptions() PipelineOptions {
	model := nn.DefaultModelConfig()
	model.BR.Epochs = 60
	model.Seed = 42
	gaOpts := ga.DefaultOptions()
	gaOpts.Seed = 42
	return PipelineOptions{
		Env:     DefaultEnv(),
		Collect: core.DefaultCollectOptions(),
		Model:   model,
		GA:      gaOpts,
	}
}

// Pipeline caches the expensive offline artifacts (dataset, trained
// surrogate) shared by several experiments.
type Pipeline struct {
	// Opts echoes the construction options.
	Opts PipelineOptions
	// Space is the datastore's configuration space.
	Space *config.Space
	// Collector benchmarks (workload, config) points.
	Collector core.Collector
	// Dataset is the collected training data.
	Dataset core.Dataset
	// Surrogate is the trained performance model.
	Surrogate *core.Surrogate
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
	// Route trainer- and search-level telemetry into the environment's
	// registry alongside the engine counters the collector already feeds.
	if opts.Env.Obs != nil {
		if opts.Model.Obs == nil {
			opts.Model.Obs = opts.Env.Obs
		}
		if opts.GA.Obs == nil {
			opts.GA.Obs = opts.Env.Obs
		}
		if opts.Collect.Obs == nil {
			opts.Collect.Obs = opts.Env.Obs
		}
	}
	// One knob drives every stage's parallelism: collection fan-out,
	// concurrent ensemble training, and (through the fitted model) batch
	// prediction inside the GA.
	if opts.Collect.Workers == 0 {
		opts.Collect.Workers = opts.Env.Workers
	}
	if opts.Model.Workers == 0 {
		opts.Model.Workers = opts.Env.Workers
	}
	ds, err := core.Collect(collector, space, opts.Collect)
	if err != nil {
		return nil, fmt.Errorf("bench: pipeline collect: %w", err)
	}
	sur, err := core.TrainSurrogate(ds, space, opts.Model)
	if err != nil {
		return nil, fmt.Errorf("bench: pipeline train: %w", err)
	}
	return &Pipeline{
		Opts:      opts,
		Space:     space,
		Collector: collector,
		Dataset:   ds,
		Surrogate: sur,
	}, nil
}

// MeasureDefault benchmarks the default configuration at w.
func (p *Pipeline) MeasureDefault(w core.Workload, seed int64) (float64, error) {
	return p.Collector.Sample(w, config.Config{}, seed)
}

// Recommend runs the GA over the surrogate for w.
func (p *Pipeline) Recommend(w core.Workload) (core.OptimizeResult, error) {
	return p.Surrogate.Optimize(w, p.Opts.GA)
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
