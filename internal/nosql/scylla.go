package nosql

import (
	"math"
	"math/rand"

	"rafiki/internal/config"
	"rafiki/internal/obs"
)

// ScyllaOptions configures the ScyllaDB-flavoured engine.
type ScyllaOptions struct {
	// Config holds user settings; parameters the auto-tuner owns are
	// overridden regardless of what the user asks for (Section 4.10).
	Config config.Config
	// Hardware defaults to DefaultHardware.
	Hardware Hardware
	// Seed drives all stochastic behaviour.
	Seed int64
	// EpochOps is the accounting epoch length in operations.
	EpochOps int
	// Obs, when non-nil, receives engine metrics and spans.
	Obs *obs.Registry
}

// ScyllaEngine simulates ScyllaDB: a Cassandra-compatible engine with an
// internal auto-tuner. The auto-tuner (a) overrides several user
// parameters with its own generally-good choices, shrinking the headroom
// left for external tuning, and (b) continuously re-balances its I/O
// and CPU scheduler, which shows up as substantial throughput variance
// even in a stationary system (the paper's Figure 10, including ~60%
// dips lasting tens of sample windows).
type ScyllaEngine struct {
	// Engine serves every operation; Apply goes through the auto-tuner
	// first.
	*Engine
	rng *rand.Rand

	// Ornstein-Uhlenbeck state for the slow throughput wander.
	ouState float64
	// dipRemaining is the virtual time left in a deep re-tune dip.
	dipRemaining float64
	dipFactor    float64
}

// NewScylla constructs the ScyllaDB engine.
func NewScylla(opts ScyllaOptions) (*ScyllaEngine, error) {
	space := config.ScyllaDB()
	model := DefaultCostModel()
	// ScyllaDB compacts far more eagerly than Cassandra: a compaction is
	// considered with respect to each flush (Section 2.2.2).
	model.SizeTieredMinThreshold = 2
	// Its shard-per-core design lowers per-op cost but the scheduler
	// injects variance; the OU hook below carries the variance.
	model.WriteCPUSeconds *= 0.85
	model.ReadCPUSeconds *= 0.85
	// ScyllaDB's scheduler-driven compaction sustains far higher merge
	// rates than Cassandra's throttled default, so its eager size-tiered
	// strategy actually keeps read amplification low.
	model.CompactorRateMBps = 30

	cfg := opts.Config
	if cfg == nil {
		cfg = space.Default()
	}
	s := &ScyllaEngine{rng: rand.New(rand.NewSource(opts.Seed ^ 0x5c111a))}
	eng, err := New(Options{
		Space:    space,
		Config:   s.autotune(cfg),
		Hardware: opts.Hardware,
		Model:    model,
		Seed:     opts.Seed,
		EpochOps: opts.EpochOps,
		Obs:      opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	s.Engine = eng
	eng.throughputFactor = s.epochFactor
	return s, nil
}

// Space returns the ScyllaDB parameter space.
func (s *ScyllaEngine) Space() *config.Space { return s.space }

// autotune returns a copy of cfg with auto-tuned parameters forced to
// the tuner's own choices. The choices are deliberately good ones —
// that is why external tuning gains less on ScyllaDB (~9%) than on
// Cassandra (~41%).
func (s *ScyllaEngine) autotune(cfg config.Config) config.Config {
	out := cfg.Clone()
	hw := DefaultHardware()
	out[config.ParamFileCacheSize] = 1024
	out[config.ParamConcurrentCompactors] = float64(hw.Cores / 2)
	out[config.ParamConcurrentReads] = float64(3 * hw.Cores)
	out[config.ParamMemtableFlushWriters] = float64(hw.Cores / 2)
	// Key parameters stay user-tunable, but ScyllaDB ships good internal
	// defaults for them when unset — that is why external tuning gains
	// little over its out-of-the-box behaviour.
	if _, ok := out[config.ParamCompactionThroughput]; !ok {
		out[config.ParamCompactionThroughput] = 128
	}
	if _, ok := out[config.ParamMemtableHeapSpace]; !ok {
		out[config.ParamMemtableHeapSpace] = 3072
	}
	if _, ok := out[config.ParamMemtableCleanup]; !ok {
		out[config.ParamMemtableCleanup] = 0.25
	}
	return out
}

// Apply reconfigures user-controllable parameters; auto-tuned ones are
// silently re-overridden, exactly the behaviour that frustrated the
// paper's ANOVA stage on ScyllaDB.
func (s *ScyllaEngine) Apply(cfg config.Config) error {
	return s.Engine.Apply(s.autotune(cfg))
}

// epochFactor models the auto-tuner's throughput variance: a slow
// mean-reverting wander plus occasional deep dips while the tuner
// re-balances shares.
func (s *ScyllaEngine) epochFactor(dt float64) float64 {
	const (
		theta    = 0.8  // mean reversion rate (1/s)
		sigma    = 0.30 // wander volatility
		dipProb  = 0.10 // dips per second of virtual time
		dipSlow  = 1.6  // duration multiplier while dipping (~ -38%)
		dipOnMin = 0.08 // dip duration bounds (virtual seconds; scaled
		dipOnMax = 0.25 // like the 40-second dips of Figure 10)
	)
	if s.dipRemaining > 0 {
		s.dipRemaining -= dt
		return s.dipFactor
	}
	if s.rng.Float64() < dipProb*dt {
		s.dipRemaining = dipOnMin + s.rng.Float64()*(dipOnMax-dipOnMin)
		s.dipFactor = dipSlow * (0.85 + 0.3*s.rng.Float64())
		return s.dipFactor
	}
	s.ouState += -theta*s.ouState*dt + sigma*math.Sqrt(dt)*s.rng.NormFloat64()
	// Clamp the wander so factors stay in a sane band.
	if s.ouState > 0.5 {
		s.ouState = 0.5
	}
	if s.ouState < -0.5 {
		s.ouState = -0.5
	}
	return math.Exp(s.ouState)
}
