package core

import (
	"fmt"
	"math"
	"math/rand"

	"rafiki/internal/config"
	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// CollectOptions tunes the training-data collection stage.
type CollectOptions struct {
	// Workloads lists the workload characterizations to benchmark; the
	// paper uses 11 read ratios spanning 0%..100% in 10% steps, and
	// mixed-op suites add scan-ratio points (see Workload).
	Workloads []Workload
	// Configs is the number of configurations (20 in the paper, for
	// 220 total samples).
	Configs int
	// Seed drives config sampling and per-sample seeds.
	Seed int64
	// DropRate simulates faulted samples removed from the dataset (the
	// paper drops 20 of 220 for client faults); 0 keeps everything.
	DropRate float64
	// Workers bounds how many samples run concurrently; <= 0 means one
	// per CPU. Sample seeds and the drop schedule are fixed before any
	// sample runs, and results land in index-addressed slots, so every
	// worker count yields the same dataset.
	Workers int
	// Obs, when non-nil, receives the collection stage's worker gauge
	// and task counter, plus each sample's telemetry (via ObsCollector
	// stages merged in sample order).
	Obs *obs.Registry
}

// DefaultCollectOptions mirrors the paper's data-collection setup.
func DefaultCollectOptions() CollectOptions {
	ws := make([]Workload, 0, 11)
	for rr := 0.0; rr <= 1.0001; rr += 0.1 {
		ws = append(ws, RR(math.Round(rr*10)/10))
	}
	return CollectOptions{Workloads: ws, Configs: 20}
}

// SampleConfigs draws the configuration set C for data collection
// following Section 3.5: the default configuration is included, every
// key parameter's minimum and maximum each occur at least once, and the
// remaining configurations are random — but not fully combinatorial.
func SampleConfigs(space *config.Space, n int, seed int64) ([]config.Config, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one configuration, got %d", n)
	}
	keys, err := space.KeyParams()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	randomValue := func(p config.Parameter) float64 {
		v := p.Min + rng.Float64()*(p.Max-p.Min)
		return p.Clamp(v)
	}
	randomConfig := func() config.Config {
		cfg := make(config.Config, len(keys))
		for _, p := range keys {
			cfg[p.Name] = randomValue(p)
		}
		return cfg
	}

	out := make([]config.Config, 0, n)
	out = append(out, config.Config{}) // the default configuration

	// Coverage: one config pinning each key parameter at min, one at
	// max, with the other parameters random.
	for _, p := range keys {
		for _, v := range []float64{p.Min, p.Max} {
			if len(out) >= n {
				break
			}
			cfg := randomConfig()
			cfg[p.Name] = p.Clamp(v)
			out = append(out, cfg)
		}
	}
	for len(out) < n {
		out = append(out, randomConfig())
	}
	return out[:n], nil
}

// Collect benchmarks every workload against every sampled
// configuration, producing the surrogate's training dataset.
func Collect(c Collector, space *config.Space, opts CollectOptions) (Dataset, error) {
	if len(opts.Workloads) == 0 {
		return Dataset{}, fmt.Errorf("core: no workloads to collect")
	}
	for _, w := range opts.Workloads {
		if err := w.Validate(); err != nil {
			return Dataset{}, err
		}
	}
	if opts.DropRate < 0 || opts.DropRate >= 1 {
		return Dataset{}, fmt.Errorf("core: drop rate %v out of [0,1)", opts.DropRate)
	}
	configs, err := SampleConfigs(space, opts.Configs, opts.Seed)
	if err != nil {
		return Dataset{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	// Per-sample seeds and the drop schedule are decided sequentially up
	// front — the rng consumption order is fixed before any benchmarking
	// starts — so the surviving task list is identical for every worker
	// count. The samples themselves then fan out.
	var ds Dataset
	var tasks []sampleTask
	seed := opts.Seed + 1000
	for _, cfg := range configs {
		for _, w := range opts.Workloads {
			seed++
			if opts.DropRate > 0 && rng.Float64() < opts.DropRate {
				// A faulted load generator: the sample is discarded, as
				// in the paper's cleanup of 20 noisy samples.
				ds.Dropped++
				continue
			}
			tasks = append(tasks, sampleTask{w: w, cfg: cfg, seed: seed})
		}
	}
	tputs, err := runSamples(c, tasks, par.Options{Workers: opts.Workers, Name: "collect", Obs: opts.Obs},
		func(i int, err error) error {
			return fmt.Errorf("core: sampling %s at %v: %w", space.Describe(tasks[i].cfg), tasks[i].w, err)
		})
	if err != nil {
		return Dataset{}, err
	}
	ds.Samples = make([]Sample, 0, len(tasks))
	for i, t := range tasks {
		ds.Samples = append(ds.Samples, Sample{Workload: t.w, Config: t.cfg.Clone(), Throughput: tputs[i]})
	}
	return ds, nil
}

// sampleTask is one benchmark sample of an offline stage, laid out with
// its seed before the stage fans out.
type sampleTask struct {
	w    Workload
	cfg  config.Config
	seed int64
}

// runSamples benchmarks every task on c across the stage's workers and
// returns the measurements in task order (par.Staged); a failed task's
// error is reported through wrap. An ObsCollector writes each sample's
// telemetry to the task's own stage of opts.Obs.
func runSamples(c Collector, tasks []sampleTask, opts par.Options, wrap func(task int, err error) error) ([]float64, error) {
	oc, staged := c.(ObsCollector)
	return par.Staged(len(tasks), opts, func(i int, stage *obs.Registry) (float64, error) {
		t := tasks[i]
		var tput float64
		var err error
		if staged && stage != nil {
			tput, err = oc.SampleObs(t.w, t.cfg, t.seed, stage)
		} else {
			tput, err = c.Sample(t.w, t.cfg, t.seed)
		}
		if err != nil {
			return 0, wrap(i, err)
		}
		return tput, nil
	})
}
