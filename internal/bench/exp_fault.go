package bench

import (
	"fmt"

	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/fault"
	"rafiki/internal/workload"
)

// postureRun is one finished run of the standard fault-posture
// benchmark: the cluster and injector it ran on, left for the caller to
// read whatever it reports, and the workload's result.
type postureRun struct {
	c      *cluster.Cluster
	inj    *fault.Injector
	result workload.Result
}

// faultSchedule builds the experiment's adversity, scaled to the
// healthy run's duration T so the windows land mid-run regardless of
// the configured op count. Phases in order: a transient-failure window
// on node 0 with a fail-stop outage of node 2 inside it (QUORUM reads
// then need node 0 to answer, so unretried transient failures turn
// into unavailability); a crash-restart of node 0 with a torn
// commit-log tail; and a straggler degradation of node 1 that persists
// past the end of the run — the failing-disk case that paces an
// unprotected cluster until an operator intervenes, and exactly what
// per-op timeouts and speculative reads are for.
func faultSchedule(T float64) fault.Schedule {
	return fault.Schedule{
		{Kind: fault.Transient, Node: 0, At: 0.08 * T, Until: 0.45 * T, FailProb: 0.15},
		{Kind: fault.Fail, Node: 2, At: 0.25 * T, Until: 0.40 * T},
		{Kind: fault.Restart, Node: 0, At: 0.55 * T, CorruptFraction: 0.3},
		{Kind: fault.Slow, Node: 1, At: 0.65 * T, Until: 20 * T, DiskTax: 25, CPUTax: 4},
	}
}

// runFaultPosture benchmarks the standard mixed workload (RR=50%) on a
// 3-node RF-3 QUORUM cluster under one resilience posture and one
// fault/network schedule (nil = healthy, clean network). opts carries
// the cluster fields an experiment sets beyond that shape — NetSim's
// link latency — and seedOffset keeps the experiments' workload streams
// apart.
func runFaultPosture(env Env, opts cluster.Options, res cluster.ResilienceOptions, sched fault.Schedule, seed, seedOffset int64) (postureRun, error) {
	opts.Nodes, opts.ReplicationFactor = 3, 3
	opts.Space = config.Cassandra()
	opts.Seed = env.Seed ^ seed
	// Node clocks advance only at epoch closes; short epochs keep them
	// fine-grained enough that no schedule window can slip between two
	// closes unobserved.
	opts.EpochOps = 128
	opts.Obs = env.Obs
	c, err := cluster.New(opts)
	if err != nil {
		return postureRun{}, err
	}
	c.Preload(env.PreloadVersions)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		return postureRun{}, err
	}
	if err := c.SetResilience(res); err != nil {
		return postureRun{}, err
	}
	inj, err := fault.NewInjector(c, sched, env.Seed^seed^0x5EED)
	if err != nil {
		return postureRun{}, err
	}
	c.SetFaultInjector(inj)
	result, err := workload.Run(fault.NewHarness(c, inj), workload.Spec{
		ReadRatio: 0.5,
		KRDMean:   env.KRDFraction * float64(c.KeySpace()),
		Ops:       env.SampleOps,
		Seed:      seed + seedOffset,
	})
	if err != nil {
		return postureRun{}, err
	}
	// Fire any events scheduled past the measured window (recoveries)
	// so every posture ends converged, then surface injector errors.
	inj.Finish()
	if err := inj.Err(); err != nil {
		return postureRun{}, fmt.Errorf("bench: fault schedule: %w", err)
	}
	return postureRun{c: c, inj: inj, result: result}, nil
}

// FaultInjection quantifies what the coordinator's resilience machinery
// buys under a deterministic fault schedule: the same seeded adversity
// (transient failures, a heavy straggler, a fail-stop outage, a
// crash-restart with a torn commit log) replayed against three
// postures — no resilience, bounded retries only, and the full stack
// (retries + per-op timeouts + speculative reads).
func FaultInjection(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	const seed = 130_000
	run := func(res cluster.ResilienceOptions, sched fault.Schedule) (postureRun, error) {
		return runFaultPosture(env, cluster.Options{}, res, sched, seed, 101)
	}

	// Healthy baseline fixes the schedule's time base and the
	// no-fault throughput reference.
	healthy, err := run(cluster.PassiveResilience(), nil)
	if err != nil {
		return Report{}, err
	}
	sched := faultSchedule(healthy.result.Seconds)

	// The coordinator's time constants scale to the measured healthy
	// op cost (ResilienceOptions.ScaledTo).
	perOp := healthy.result.Seconds / float64(env.SampleOps)

	retriesOnly := cluster.PassiveResilience()
	retriesOnly.MaxRetries = 3
	retriesOnly.BackoffBase = perOp
	retriesOnly.BackoffMax = 25 * perOp

	full := cluster.DefaultResilienceOptions().ScaledTo(perOp)

	postures := []struct {
		name string
		res  cluster.ResilienceOptions
	}{
		{"none", cluster.PassiveResilience()},
		{"retries", retriesOnly},
		{"full", full},
	}
	outcomes := make([]postureRun, len(postures))
	for i, p := range postures {
		// Same workload seed and same injector seed for every posture:
		// each faces the identical adversity.
		out, err := run(p.res, sched)
		if err != nil {
			return Report{}, fmt.Errorf("bench: posture %s: %w", p.name, err)
		}
		outcomes[i] = out
	}

	t := Table{
		Title:  "Throughput and availability under the same seeded fault schedule (3 nodes, RF=3, QUORUM reads, RR=50%)",
		Header: []string{"posture", "aops", "vs healthy", "unavail reads", "hinted writes", "transient fails", "retries", "timeouts", "spec reads", "log records lost"},
	}
	t.Rows = append(t.Rows, []string{
		"healthy (no faults)", f0(healthy.result.Throughput), pct(0),
		"0", "0", "0", "0", "0", "0", "0",
	})
	for i, p := range postures {
		out := outcomes[i]
		st := out.c.Stats()
		t.Rows = append(t.Rows, []string{
			p.name, f0(out.result.Throughput), pct(out.result.Throughput/healthy.result.Throughput - 1),
			fmt.Sprint(st.UnavailableReads), fmt.Sprint(st.HintsStored),
			fmt.Sprint(st.TransientFailures), fmt.Sprint(st.Retries),
			fmt.Sprint(st.Timeouts), fmt.Sprint(st.SpeculativeReads),
			fmt.Sprint(out.inj.LostRecords()),
		})
	}

	none, retries, fullRun := outcomes[0], outcomes[1], outcomes[2]
	unavail := func(r postureRun) uint64 { return r.c.Stats().UnavailableReads }
	return Report{
		ID:     "faultinjection",
		Title:  "Fault injection: what the resilient coordinator buys under adversity",
		Tables: []Table{t},
		Notes: []string{
			"every posture replays the identical schedule: transient failures on node 0 (p=0.15) with a fail-stop outage of node 2 inside the window, a crash-restart of node 0 with 30% of its commit-log tail torn, then a persistent 25x disk straggler on node 1 for the rest of the run",
		},
		Claims: []Claim{
			claim(unavail(retries) < unavail(none), "retries turn would-be unavailable QUORUM reads into served ones (%d vs %d unavailable)",
				unavail(retries), unavail(none)),
			claim(fullRun.result.Throughput > retries.result.Throughput, "timeouts + speculative reads stop the persistent straggler from pacing the whole cluster (full stack %s vs retries-only %s aops)",
				f0(fullRun.result.Throughput), f0(retries.result.Throughput)),
			claim(fullRun.result.Throughput > none.result.Throughput, "the full stack beats the unprotected baseline (%s vs %s aops)",
				f0(fullRun.result.Throughput), f0(none.result.Throughput)),
		},
	}, nil
}
