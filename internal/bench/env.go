package bench

import "rafiki/internal/sim"

// Env fixes the experimental environment: how a benchmark sample is
// taken (sample length, key-reuse profile, base seed, telemetry — the
// embedded sim.Sampler, which is also the Cassandra collector) and how
// wide the harness fans out.
type Env struct {
	sim.Sampler
	// Workers bounds the parallelism of every pipeline stage driven by
	// this environment — data collection, ensemble training, and batch
	// prediction. <= 0 means one worker per CPU; 1 forces serial
	// execution. Results are identical for any value.
	Workers int
}

// DefaultEnv returns the environment used by the experiment suite.
func DefaultEnv() Env { return Env{Sampler: sim.Default()} }
