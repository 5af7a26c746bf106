// Package sim is the one place a benchmark sample is taken on the
// simulator: fresh store -> Preload -> workload.Run -> metric, the
// paper's "reset the server, run the benchmark for five minutes, read
// the throughput" (Section 3.5). The facade, the commands, the examples
// and the experiment harness all sample through a Sampler, so what a
// sample is — how long it runs, what it measures, how its seeds derive
// — changes here and nowhere else.
package sim

import (
	"fmt"

	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/nosql"
	"rafiki/internal/obs"
	"rafiki/internal/workload"
)

// Sampler fixes how a sample is taken and is the simulator-backed
// core.Collector (and core.ObsCollector: under a parallel stage each
// sample's telemetry goes to the stage registry it is handed, not to
// Obs). A fresh store backs every sample, matching the paper's
// container reset between data-collection events. Samplers are values:
// copy one and change a field to derive a variant.
type Sampler struct {
	// Space selects the datastore: the ScyllaDB space samples a
	// ScyllaEngine (auto-tuner included), any other space an Engine;
	// nil means Cassandra.
	Space *config.Space
	// Seed is the base seed; all derived seeds are deterministic.
	Seed int64
	// SampleOps is the number of operations per benchmark sample (the
	// analog of the paper's 5-minute measurement window).
	SampleOps int
	// KRDFraction sets the key-reuse-distance mean as a fraction of the
	// key space; MG-RAST's KRD is large (Section 3.3).
	KRDFraction float64
	// PreloadVersions controls the preloaded dataset's overlap depth.
	PreloadVersions int
	// Obs, when non-nil, receives engine- and cluster-level telemetry
	// from every sample. The registry is shared across samples, so
	// counters accumulate over a whole experiment.
	Obs *obs.Registry

	nodes, rf  int  // OnCluster: sample a cluster, not a single engine
	inverseP99 bool // InverseP99: the metric is 1/p99, not throughput
}

// Default returns the sizing the experiment suite uses.
func Default() Sampler {
	return Sampler{Seed: 1, SampleOps: 100_000, KRDFraction: 2.0, PreloadVersions: 3}
}

// Validate reports sizing errors.
func (s Sampler) Validate() error {
	if s.SampleOps <= 0 {
		return fmt.Errorf("sim: sample ops must be positive, got %d", s.SampleOps)
	}
	if s.KRDFraction < 0 {
		return fmt.Errorf("sim: negative KRD fraction %v", s.KRDFraction)
	}
	if s.PreloadVersions < 1 {
		return fmt.Errorf("sim: preload versions must be >= 1, got %d", s.PreloadVersions)
	}
	return nil
}

// OnCluster returns the sampler that benchmarks a fresh multi-node
// cluster with the given node count and replication factor.
func (s Sampler) OnCluster(nodes, rf int) Sampler {
	s.nodes, s.rf = nodes, rf
	return s
}

// InverseP99 returns the sampler whose metric is the inverse of the p99
// epoch latency (1/seconds) — the alternative performance metric of
// Section 3.8, where the DBA tunes for tail latency instead of
// throughput. Higher is better, as the middleware expects.
func (s Sampler) InverseP99() Sampler {
	s.inverseP99 = true
	return s
}

// Store is what the protocol needs of a simulated datastore; Engine,
// ScyllaEngine and Cluster satisfy it.
type Store interface {
	workload.Store
	Preload(versions int)
	Metrics() nosql.Metrics
}

func (s Sampler) newStore(cfg config.Config, seed int64) (Store, error) {
	space := s.Space
	if space == nil {
		space = config.Cassandra()
	}
	switch {
	case s.nodes > 0:
		return cluster.New(cluster.Options{
			Nodes: s.nodes, ReplicationFactor: s.rf,
			Space: space, Config: cfg, Seed: seed, Obs: s.Obs,
		})
	case space.Name == "scylladb":
		return nosql.NewScylla(nosql.ScyllaOptions{Config: cfg, Seed: seed, Obs: s.Obs})
	default:
		return nosql.New(nosql.Options{Space: space, Config: cfg, Seed: seed, Obs: s.Obs})
	}
}

// spec translates a workload characterization into the concrete
// workload.Spec a sample drives: RR-only workloads are reads against
// updates, while workloads with scans run the full CRUD+scan mix —
// scans at ScanRatio and a fixed 5% delete share of mutations so
// tombstone pressure is always represented.
func (s Sampler) spec(w core.Workload, keySpace int, seed int64) workload.Spec {
	spec := workload.Spec{
		ReadRatio: w.ReadRatio,
		KRDMean:   s.KRDFraction * float64(keySpace),
		Ops:       s.SampleOps,
		Seed:      seed,
	}
	if w.ScanRatio != 0 {
		spec.Mix = workload.MixForShape(w.ReadRatio, w.ScanRatio, 0.05)
	}
	return spec
}

// Run is the sample protocol with its two seeds spelled out: a fresh
// store configured with cfg and seeded storeSeed is preloaded and
// driven with SampleOps operations of w drawn from driverSeed. It
// returns the driver's result and the store it ran on, for callers that
// read more than one number off a run (a throughput series, engine
// counters).
func (s Sampler) Run(w core.Workload, cfg config.Config, storeSeed, driverSeed int64) (workload.Result, Store, error) {
	st, err := s.newStore(cfg, storeSeed)
	if err != nil {
		return workload.Result{}, nil, err
	}
	st.Preload(s.PreloadVersions)
	res, err := workload.Run(st, s.spec(w, st.KeySpace(), driverSeed))
	return res, st, err
}

// Sample implements core.Collector: one (workload, configuration) point
// on a fresh store, both seeds derived from the base seed and seed.
func (s Sampler) Sample(w core.Workload, cfg config.Config, seed int64) (float64, error) {
	if s.nodes > 0 && s.inverseP99 {
		return 0, fmt.Errorf("sim: InverseP99 on an OnCluster(%d, %d) sampler: cluster metrics carry no epoch latencies to take a p99 of", s.nodes, s.rf)
	}
	res, st, err := s.Run(w, cfg, s.Seed^seed, seed+101)
	if err != nil {
		return 0, err
	}
	if !s.inverseP99 {
		return res.Throughput, nil
	}
	p99 := st.Metrics().LatencyPercentile(0.99)
	if p99 <= 0 {
		return 0, fmt.Errorf("sim: no latency samples collected")
	}
	return 1 / p99, nil
}

// SampleObs implements core.ObsCollector: the sample's telemetry goes
// to reg (a stage of the shared registry, merged back in sample order)
// instead of Obs.
func (s Sampler) SampleObs(w core.Workload, cfg config.Config, seed int64, reg *obs.Registry) (float64, error) {
	s.Obs = reg
	return s.Sample(w, cfg, seed)
}
