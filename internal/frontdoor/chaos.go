package frontdoor

import (
	"bytes"
	"fmt"

	"rafiki/internal/check"
	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/fault"
	"rafiki/internal/obs"
)

// OverloadConfig configures the overload chaos harness: seeded runs
// that drive a multi-thousand-tenant open-loop fleet into overload
// while a partition and a straggler overlap the surge, then hold the
// front door to three promises — admitted requests keep their tail
// SLO, shedding is deterministic, and session guarantees survive for
// everything that was admitted.
type OverloadConfig struct {
	// Seeds are the chaos seeds (default overloadSeedSet()).
	Seeds []int64
}

const (
	// overloadTenants is the fleet size, split across the classes.
	overloadTenants = 2000
	// overloadMinCompliance is the fraction of SLO windows that must
	// meet the p99 ceiling.
	overloadMinCompliance = 0.9
)

// overloadSeedSet is the default chaos seed set; make slo runs it.
func overloadSeedSet() []int64 {
	return []int64{3, 7, 11, 19, 23, 31}
}

// OverloadOutcome is one seed's verdict.
type OverloadOutcome struct {
	Seed    int64
	Verdict string // "ok", "slo-miss", "session-violation", "nondeterministic"
	Detail  string

	Arrivals, Admitted, Completed uint64
	ShedRateLimited               uint64
	ShedQueueFull                 uint64
	ShedDeadline                  uint64
	Shed                          uint64
	MaxQueueDepth                 int
	// Compliance is the fraction of SLO windows meeting the ceiling;
	// SteadyP99 the protected class's overall p99 (virtual seconds).
	Compliance float64
	SteadyP99  float64
	// BreakerOpens and RPCLost surface the cluster-side defenses the
	// schedule exercised.
	BreakerOpens, RPCLost uint64
	Digest                uint64
}

// ok reports a clean verdict.
func (o OverloadOutcome) ok() bool { return o.Verdict == "ok" }

// OverloadReport is the harness result over all seeds.
type OverloadReport struct {
	Outcomes []OverloadOutcome
	Failures int
}

// RunOverload runs the overload chaos harness.
func RunOverload(cfg OverloadConfig) (*OverloadReport, error) {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = overloadSeedSet()
	}
	rep := &OverloadReport{}
	for _, seed := range cfg.Seeds {
		out, err := runOverloadSeed(seed)
		if err != nil {
			return nil, err
		}
		if !out.ok() {
			rep.Failures++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}

// OverloadScenario runs the standard overload serving scenario once —
// the same fleet, fault schedule, and surge the chaos harness grades —
// and returns the raw front-door result plus the cluster's stats, for
// callers (the bench experiments) that want the per-class breakdown
// rather than a verdict.
func OverloadScenario(seed int64) (*Result, cluster.Stats, error) {
	perOp, err := calibrateOverload(seed)
	if err != nil {
		return nil, cluster.Stats{}, err
	}
	run, stats, err := overloadOnce(seed, perOp)
	if err != nil {
		return nil, cluster.Stats{}, err
	}
	return run.res, stats, nil
}

// overloadRun is one seeded run's raw material.
type overloadRun struct {
	res  *Result
	snap []byte
	p99  float64 // steady class
}

// runOverloadSeed runs one seed twice (for the determinism cross-check)
// and grades it.
func runOverloadSeed(seed int64) (OverloadOutcome, error) {
	perOp, err := calibrateOverload(seed)
	if err != nil {
		return OverloadOutcome{}, err
	}
	a, stats, err := overloadOnce(seed, perOp)
	if err != nil {
		return OverloadOutcome{}, err
	}
	b, _, err := overloadOnce(seed, perOp)
	if err != nil {
		return OverloadOutcome{}, err
	}

	res := a.res
	out := OverloadOutcome{
		Seed:            seed,
		Verdict:         "ok",
		Arrivals:        res.Arrivals,
		Admitted:        res.Admitted,
		Completed:       res.Completed,
		ShedRateLimited: res.ShedRateLimited,
		ShedQueueFull:   res.ShedQueueFull,
		ShedDeadline:    res.ShedDeadline,
		Shed:            res.ShedRateLimited + res.ShedQueueFull + res.ShedDeadline,
		MaxQueueDepth:   res.MaxQueueDepth,
		SteadyP99:       a.p99,
		BreakerOpens:    stats.BreakerOpens,
		RPCLost:         stats.RPCLostTimeouts,
		Digest:          res.ShedDigest,
	}
	if len(res.Windows) > 0 {
		out.Compliance = 1 - float64(res.SLOViolations)/float64(len(res.Windows))
	}

	switch {
	case a.res.ShedDigest != b.res.ShedDigest || !bytes.Equal(a.snap, b.snap):
		out.Verdict = "nondeterministic"
		out.Detail = fmt.Sprintf("digests %016x vs %016x, snapshots %d vs %d bytes",
			a.res.ShedDigest, b.res.ShedDigest, len(a.snap), len(b.snap))
	case len(res.Windows) == 0 || out.Compliance < overloadMinCompliance:
		out.Verdict = "slo-miss"
		out.Detail = fmt.Sprintf("%d of %d windows violated p99 ceiling", res.SLOViolations, len(res.Windows))
	case out.Shed == 0:
		// The schedule is built to overload: a run that shed nothing
		// did not actually test degradation.
		out.Verdict = "slo-miss"
		out.Detail = "schedule produced no shedding at all"
	default:
		if v := check.CheckReadYourWrites(res.History); len(v) > 0 {
			out.Verdict = "session-violation"
			out.Detail = v[0].String()
		} else if v := check.CheckMonotonicReads(res.History); len(v) > 0 {
			out.Verdict = "session-violation"
			out.Detail = v[0].String()
		}
	}
	return out, nil
}

// calibrateOverload measures the healthy mean per-request latency of a
// cluster shaped like the serving one — the service time the front door
// charges — over a 400-op probe of alternating reads and writes.
func calibrateOverload(seed int64) (float64, error) {
	c, err := newOverloadCluster(seed, nil)
	if err != nil {
		return 0, err
	}
	const probe = 400
	var total float64
	for k := uint64(0); k < probe; k++ {
		if k%2 == 0 {
			total += c.ReadOp(k % uint64(c.KeySpace())).Latency
		} else {
			total += c.WriteOp(k % uint64(c.KeySpace())).Latency
		}
	}
	perOp := total / probe
	if perOp <= 0 {
		return 0, fmt.Errorf("frontdoor: calibration measured no work")
	}
	return perOp, nil
}

// newOverloadCluster builds the serving cluster: per-op epochs, quorum
// reads and writes.
func newOverloadCluster(seed int64, reg *obs.Registry) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Options{
		Nodes:             3,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              seed,
		EpochOps:          1,
		Obs:               reg,
	})
	if err != nil {
		return nil, err
	}
	c.Preload(1)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		return nil, err
	}
	if err := c.SetWriteConsistency(cluster.ConsistencyQuorum); err != nil {
		return nil, err
	}
	return c, nil
}

// overloadOnce performs one full seeded run.
func overloadOnce(seed int64, perOp float64) (overloadRun, cluster.Stats, error) {
	reg := obs.NewRegistry()
	c, err := newOverloadCluster(seed, reg)
	if err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	res := cluster.DefaultResilienceOptions().ScaledTo(perOp)
	res.BreakerFailures = 5
	res.BreakerCooldown = 200 * perOp
	res.RetryBudgetFrac = 0.2
	if err := c.SetResilience(res); err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}

	const conc = 16
	horizon := 2500 * perOp
	capacity := conc / perOp // requests per virtual second at full tilt
	steady := 8 * overloadTenants / 10
	bursty := overloadTenants / 10
	greedy := overloadTenants - steady - bursty
	deadline := 50 * perOp
	opts := Options{
		Seed:        seed,
		Horizon:     horizon,
		Concurrency: conc,
		QueueCap:    30 * conc,
		Keys:        4,
		Classes: []TenantClass{
			{
				// The protected bulk of the fleet: modest per-tenant
				// Poisson load, deadline-guarded.
				Name: "steady", Tenants: steady, Arrival: Poisson,
				RatePerTenant: 0.45 * capacity / float64(steady),
				ReadRatio:     0.6, Deadline: deadline,
			},
			{
				// Batchy pipelines: the same mean load compressed into
				// 4x-intense ON dwells.
				Name: "bursty", Tenants: bursty, Arrival: OnOff,
				RatePerTenant: 4 * 0.15 * capacity / float64(bursty),
				OnMean:        100 * perOp, OffMean: 300 * perOp,
				ReadRatio: 0.5, Deadline: deadline,
			},
			{
				// Abusers: each offers far more than its token bucket
				// admits, so the limiter carries the shedding.
				Name: "greedy", Tenants: greedy, Arrival: Poisson,
				RatePerTenant: 0.8 * capacity / float64(greedy),
				ReadRatio:     0.5, Deadline: deadline,
				RateLimit: 0.1 * capacity / float64(greedy),
			},
		},
		SLOWindow:     100 * perOp,
		SLOP99:        80 * perOp,
		Obs:           reg,
		RecordHistory: true,
	}

	// The schedule: a coordinator-link partition, then a straggler,
	// with a demand surge overlapping both.
	sched := fault.Schedule{
		{Kind: fault.Partition, Node: fault.CoordinatorEndpoint, Peer: 0, At: 0.25 * horizon, Until: 0.45 * horizon},
		{Kind: fault.Partition, Node: 0, Peer: fault.CoordinatorEndpoint, At: 0.25 * horizon, Until: 0.45 * horizon},
		{Kind: fault.Slow, Node: 1, At: 0.55 * horizon, Until: 0.75 * horizon, DiskTax: 30, CPUTax: 4},
	}
	inj, err := fault.NewInjector(c, sched, seed^0x5EED)
	if err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	c.SetFaultInjector(inj)
	opts.Injector = inj

	fd, err := New(c, opts)
	if err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	fd.SetSurges([]Surge{{At: 0.35 * horizon, Until: 0.65 * horizon, Factor: 2.5}})
	out, err := fd.Run()
	if err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	inj.Finish()
	if err := inj.Err(); err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	snap, err := reg.Snapshot().JSON()
	if err != nil {
		return overloadRun{}, cluster.Stats{}, err
	}
	return overloadRun{res: out, snap: snap, p99: out.Classes[0].P99}, c.Stats(), nil
}
