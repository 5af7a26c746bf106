// Package rafiki is a from-scratch Go reproduction of "Rafiki: A
// Middleware for Parameter Tuning of NoSQL Datastores for Dynamic
// Metagenomics Workloads" (Mahgoub et al., ACM Middleware 2017).
//
// The package exposes the full system: a structural Cassandra/ScyllaDB
// storage-engine simulator (commit log, memtables, SSTables, size-tiered
// and leveled compaction, file cache, virtual-clock resource model), a
// YCSB-like workload driver with MG-RAST-style trace synthesis, and the
// Rafiki middleware itself — ANOVA key-parameter identification, a
// Bayesian-regularized neural-network surrogate of throughput, and a
// genetic-algorithm configuration search, plus the online controller
// that re-tunes the datastore when the workload shifts.
//
// Quick start:
//
//	collector := rafiki.NewSimulatorCollector(rafiki.SimulatorConfig{})
//	tuner, _ := rafiki.NewTuner(collector, rafiki.CassandraSpace(), rafiki.DefaultTunerOptions())
//	_ = tuner.Prepare()                 // offline: collect + train
//	rec, _ := tuner.Recommend(rafiki.RR(0.9)) // online: tune for a read-heavy workload
//	fmt.Println(rafiki.CassandraSpace().Describe(rec.Config))
//
// See examples/ for runnable scenarios and internal/bench for the
// harness that regenerates every table and figure of the paper.
package rafiki

import (
	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/fault"
	"rafiki/internal/forecast"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
	"rafiki/internal/nosql"
	"rafiki/internal/obs"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
)

// Configuration-space types.
type (
	// Config is an assignment of values to configuration parameters.
	Config = config.Config
	// Space describes a datastore's tunable parameters.
	Space = config.Space
	// Parameter describes one tunable parameter.
	Parameter = config.Parameter
)

// Key parameter names (Section 3.4.1) and compaction strategies.
const (
	ParamCompactionStrategy   = config.ParamCompactionStrategy
	ParamConcurrentWrites     = config.ParamConcurrentWrites
	ParamFileCacheSize        = config.ParamFileCacheSize
	ParamMemtableCleanup      = config.ParamMemtableCleanup
	ParamConcurrentCompactors = config.ParamConcurrentCompactors

	CompactionSizeTiered = config.CompactionSizeTiered
	CompactionLeveled    = config.CompactionLeveled
)

// CassandraSpace returns the Cassandra 3.x configuration space with the
// paper's five key parameters pre-selected.
func CassandraSpace() *Space { return config.Cassandra() }

// ScyllaDBSpace returns the ScyllaDB configuration space (auto-tuned
// parameters flagged as ignored).
func ScyllaDBSpace() *Space { return config.ScyllaDB() }

// Storage-engine simulator types.
type (
	// Engine is the simulated Cassandra-style storage engine.
	Engine = nosql.Engine
	// EngineOptions configures an Engine.
	EngineOptions = nosql.Options
	// ScyllaEngine is the ScyllaDB variant with an internal auto-tuner.
	ScyllaEngine = nosql.ScyllaEngine
	// ScyllaOptions configures a ScyllaEngine.
	ScyllaOptions = nosql.ScyllaOptions
	// Hardware models the simulated server.
	Hardware = nosql.Hardware
	// CostModel holds the simulator's calibrated cost coefficients.
	CostModel = nosql.CostModel
	// Metrics is an engine counter snapshot.
	Metrics = nosql.Metrics
)

// NewEngine constructs a simulated Cassandra engine.
func NewEngine(opts EngineOptions) (*Engine, error) { return nosql.New(opts) }

// NewScyllaEngine constructs the ScyllaDB variant.
func NewScyllaEngine(opts ScyllaOptions) (*ScyllaEngine, error) { return nosql.NewScylla(opts) }

// DefaultHardware returns the Dell R430-like server model.
func DefaultHardware() Hardware { return nosql.DefaultHardware() }

// DefaultCostModel returns the calibrated simulator coefficients.
func DefaultCostModel() CostModel { return nosql.DefaultCostModel() }

// Workload types.
type (
	// WorkloadSpec parameterizes a synthetic workload (read ratio, key
	// reuse distance, operation count).
	WorkloadSpec = workload.Spec
	// WorkloadResult is a benchmark run's outcome.
	WorkloadResult = workload.Result
	// Store is the driver's view of a datastore (Engine, ScyllaEngine,
	// and Cluster all satisfy it).
	Store = workload.Store
	// TraceSpec parameterizes the MG-RAST-like trace synthesizer.
	TraceSpec = workload.TraceSpec
	// TraceWindow is one 15-minute observation window of a trace.
	TraceWindow = workload.Window
	// Op is one logged query for workload characterization.
	Op = workload.Op
	// Characterization is the RR/KRD summary of a raw query stream.
	Characterization = workload.Characterization
)

// RunWorkload applies spec to a store and measures throughput.
func RunWorkload(store Store, spec WorkloadSpec) (WorkloadResult, error) {
	return workload.Run(store, spec)
}

// DefaultTraceSpec mirrors the paper's 4-day, 15-minute-window setup.
func DefaultTraceSpec() TraceSpec { return workload.DefaultTraceSpec() }

// SynthesizeTrace generates an MG-RAST-like read-ratio trace.
func SynthesizeTrace(spec TraceSpec) ([]TraceWindow, error) {
	return workload.SynthesizeTrace(spec)
}

// Characterize analyzes a raw op stream into per-window read ratios and
// a fitted key-reuse-distance distribution (Section 3.3).
func Characterize(ops []Op, windowOps int) (Characterization, error) {
	return workload.Characterize(ops, windowOps)
}

// Middleware types.
type (
	// Collector benchmarks one (workload, configuration) point.
	Collector = core.Collector
	// CollectorFunc adapts a function to Collector.
	CollectorFunc = core.CollectorFunc
	// Workload is the characterization vector a sample is collected
	// under: read ratio over point operations and range-scan ratio.
	Workload = core.Workload
	// Tuner is the Rafiki middleware (offline pipeline + online search).
	Tuner = core.Tuner
	// TunerOptions configures the workflow.
	TunerOptions = core.TunerOptions
	// OptimizeResult is a configuration recommendation.
	OptimizeResult = core.OptimizeResult
	// Surrogate is the trained performance model.
	Surrogate = core.Surrogate
	// Dataset is the collected training data.
	Dataset = core.Dataset
	// Controller is the online reconfiguration loop, however built.
	Controller = core.Controller
	// WindowMetrics is one measured window for Controller.ObserveWindow.
	WindowMetrics = core.WindowMetrics
	// Applier receives recommended configurations (engines and clusters
	// satisfy it).
	Applier = core.Applier
	// Identification is the ANOVA stage's outcome.
	Identification = core.Identification
	// GAOptions tunes the genetic-algorithm search.
	GAOptions = ga.Options
	// ModelConfig tunes the neural-network surrogate.
	ModelConfig = nn.ModelConfig
)

// ErrNotPrepared is returned by online queries before Tuner.Prepare.
var ErrNotPrepared = core.ErrNotPrepared

// RR builds a point-operation-only Workload from a read ratio — the
// paper's original single-axis characterization.
func RR(readRatio float64) Workload { return core.RR(readRatio) }

// RRs wraps scalar read ratios as point-operation-only Workloads — the
// shape of the paper's collection grid.
func RRs(readRatios ...float64) []Workload { return core.RRs(readRatios...) }

// NewTuner wires the middleware for a datastore described by space.
func NewTuner(c Collector, space *Space, opts TunerOptions) (*Tuner, error) {
	return core.NewTuner(c, space, opts)
}

// DefaultTunerOptions mirrors the paper's pipeline end to end.
func DefaultTunerOptions() TunerOptions { return core.DefaultTunerOptions() }

// NewController builds the online controller that watches read-ratio
// windows and re-tunes the datastore on workload shifts.
func NewController(t *Tuner, a Applier, threshold float64) (*Controller, error) {
	return core.NewController(t, a, threshold)
}

// Cluster types.
type (
	// Cluster is a replicated multi-node deployment.
	Cluster = cluster.Cluster
	// ClusterOptions configures a Cluster.
	ClusterOptions = cluster.Options
)

// NewCluster builds a multi-node cluster of simulated engines.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// SimulatorConfig sizes the built-in simulator-backed Collector. It is
// the sampler every command, example and experiment in the repository
// samples through: Space picks the datastore (the ScyllaDB space gets a
// ScyllaEngine, auto-tuner included), OnCluster a replicated cluster,
// InverseP99 tail latency as the metric.
type SimulatorConfig = sim.Sampler

// NewSimulatorCollector returns a Collector backed by a fresh simulated
// store per sample — the programmatic equivalent of the paper's
// Docker-reset benchmarking protocol. Unset fields take the experiment
// suite's sizing: Cassandra, 100,000 operations per sample (the analog
// of the paper's 5-minute window), a key-reuse distance of twice the
// key space (MG-RAST's KRD is large), three preloaded versions.
func NewSimulatorCollector(sc SimulatorConfig) Collector {
	def := sim.Default()
	if sc.Space == nil {
		sc.Space = config.Cassandra()
	}
	if sc.SampleOps <= 0 {
		sc.SampleOps = def.SampleOps
	}
	if sc.KRDFraction <= 0 {
		sc.KRDFraction = def.KRDFraction
	}
	if sc.PreloadVersions <= 0 {
		sc.PreloadVersions = def.PreloadVersions
	}
	return sc
}

// Workload generators.
type (
	// KeyGenerator produces keys with exponential reuse distances (the
	// paper's KRD model).
	KeyGenerator = workload.KeyGenerator
	// ZipfKeyGenerator produces Zipf-skewed keys (YCSB's web-style
	// model, the archetype the paper contrasts MG-RAST against).
	ZipfKeyGenerator = workload.ZipfKeyGenerator
)

// NewKeyGenerator builds a KRD-controlled key stream.
func NewKeyGenerator(keySpace int, meanKRD float64, seed int64) (*KeyGenerator, error) {
	return workload.NewKeyGenerator(keySpace, meanKRD, seed)
}

// NewZipfKeyGenerator builds a Zipf-skewed key stream.
func NewZipfKeyGenerator(keySpace int, s float64, seed int64) (*ZipfKeyGenerator, error) {
	return workload.NewZipfKeyGenerator(keySpace, s, seed)
}

// Workload forecasting (the paper's Section 6 future work).
type (
	// Forecaster predicts the next window's read ratio.
	Forecaster = forecast.Forecaster
	// MarkovForecaster learns the regime transition structure online.
	MarkovForecaster = forecast.Markov
)

// NewMarkovForecaster builds a discretized Markov-chain predictor.
func NewMarkovForecaster(bins int) (*MarkovForecaster, error) { return forecast.NewMarkov(bins) }

// NewProactiveController wires a forecaster-driven online controller:
// it re-tunes for the forecast next window, not the one just observed.
func NewProactiveController(t *Tuner, a Applier, f Forecaster, threshold float64) (*Controller, error) {
	return core.NewProactiveController(t, a, f, threshold)
}

// LoadSurrogate reads a surrogate saved with Surrogate.Save and binds
// it to space, validating datastore and key-parameter layout.
func LoadSurrogate(path string, space *Space) (*Surrogate, error) {
	return core.LoadSurrogate(path, space)
}

// Cluster consistency levels and availability statistics.
type (
	// ConsistencyLevel selects how many replicas a read consults.
	ConsistencyLevel = cluster.ConsistencyLevel
	// ClusterStats counts availability events and hinted handoffs.
	ClusterStats = cluster.Stats
)

// Read consistency levels.
const (
	ConsistencyOne    = cluster.ConsistencyOne
	ConsistencyQuorum = cluster.ConsistencyQuorum
	ConsistencyAll    = cluster.ConsistencyAll
)

// Coordinator resilience and deterministic fault injection.
type (
	// ResilienceOptions tunes the cluster coordinator's retry, timeout,
	// speculative-read, and hint-buffer machinery.
	ResilienceOptions = cluster.ResilienceOptions
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
	// FaultEvent is one scheduled fault against one node.
	FaultEvent = fault.Event
	// FaultSchedule is a set of fault events replayed in virtual time.
	FaultSchedule = fault.Schedule
	// FaultInjector replays a schedule against a cluster or engine.
	FaultInjector = fault.Injector
	// FaultTarget is what an injector drives (Cluster satisfies it).
	FaultTarget = fault.Target
	// FaultHarness interposes an injector between a workload driver and
	// its store.
	FaultHarness = fault.Harness
	// EngineFaultTarget adapts a single engine to FaultTarget.
	EngineFaultTarget = fault.EngineTarget
)

// Fault kinds.
const (
	FaultFail       = fault.Fail
	FaultRestart    = fault.Restart
	FaultSlow       = fault.Slow
	FaultTransient  = fault.Transient
	FaultCorruptLog = fault.CorruptLog
)

// DefaultResilienceOptions enables the full coordinator resilience
// stack: bounded retries with exponential backoff, per-op timeouts, and
// speculative reads around stragglers.
func DefaultResilienceOptions() ResilienceOptions { return cluster.DefaultResilienceOptions() }

// PassiveResilience disables retries, timeouts, and speculation,
// keeping only bounded hinted handoff — the pre-hardening behaviour.
func PassiveResilience() ResilienceOptions { return cluster.PassiveResilience() }

// NewFaultInjector validates a schedule against a target and prepares a
// deterministic seeded replay.
func NewFaultInjector(target FaultTarget, schedule FaultSchedule, seed int64) (*FaultInjector, error) {
	return fault.NewInjector(target, schedule, seed)
}

// NewFaultHarness wraps a store so the injector observes the virtual
// clock before every operation.
func NewFaultHarness(store Store, inj *FaultInjector) *FaultHarness {
	return fault.NewHarness(store, inj)
}

// Guarded online re-tuning.
type (
	// GuardOptions tunes prediction vetting, the canary probe, and
	// rollback for guarded re-tuning.
	GuardOptions = core.GuardOptions
	// GuardStats counts guarded re-tuning outcomes.
	GuardStats = core.GuardStats
)

// DefaultGuardOptions enables every re-tuning guard with conservative
// settings.
func DefaultGuardOptions() GuardOptions { return core.DefaultGuardOptions() }

// NewGuardedController wires the hardened online re-tuning loop:
// prediction vetting, canarying, and last-known-good rollback.
func NewGuardedController(t *Tuner, a Applier, opts GuardOptions) (*Controller, error) {
	return core.NewGuardedController(t, a, opts)
}

// Observability: a dependency-free metrics registry plus span tracing
// on the simulator's virtual clock, so instrumented runs stay bit-for-
// bit reproducible under a seed. Pass an ObsRegistry via
// EngineOptions.Obs, ClusterOptions.Obs, TunerOptions.Obs, or
// SimulatorConfig.Obs; a nil registry disables every instrument at the
// cost of one branch per event.
type (
	// ObsRegistry interns counters, gauges, and histograms by name and
	// buffers virtual-time spans.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time export of a registry: deterministic
	// JSON and a rendered text dashboard.
	ObsSnapshot = obs.Snapshot
	// ObsSpan is one traced operation on a virtual work axis.
	ObsSpan = obs.Span
	// ObsCounter is a monotonically increasing metric.
	ObsCounter = obs.Counter
	// ObsGauge is a last-value metric.
	ObsGauge = obs.Gauge
	// ObsHistogram is a bounded-range distribution metric.
	ObsHistogram = obs.Histogram
)

// NewObsRegistry creates an empty observability registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }
