package bench

import (
	"fmt"

	"rafiki/internal/check"
	"rafiki/internal/cluster"
	"rafiki/internal/fault"
)

// NetSim demonstrates the simulated message network: the same seeded
// workload replayed over a clean network, a flaky coordinator link, a
// duplicating+delayed link, and an asymmetric partition, reporting how
// each condition surfaces in cluster behavior (hints, unavailability,
// read repair) and in the per-link network counters.
func NetSim(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	const seed = 150_000
	// Replica traffic crosses the simulated network under the given
	// schedule (nil = clean network) and resilience posture.
	run := func(res cluster.ResilienceOptions, sched fault.Schedule) (postureRun, error) {
		return runFaultPosture(env, cluster.Options{NetBaseLatency: 1e-7, NetJitter: 5e-8}, res, sched, seed, 211)
	}

	// Probe run fixes the per-op time constant; the measurement runs
	// then use resilience constants scaled to it, as exp_fault does —
	// the wall-clock defaults would turn each lost message's timeout
	// into an eternity at simulator timescale.
	probe, err := run(cluster.PassiveResilience(), nil)
	if err != nil {
		return Report{}, err
	}
	perOp := 1 / probe.result.Throughput
	res := cluster.DefaultResilienceOptions().ScaledTo(perOp)

	cleanRun, err := run(res, nil)
	if err != nil {
		return Report{}, err
	}
	// Time base for the schedules: the clean run's span at this op
	// count, recovered from throughput (aops = ops/seconds).
	clean := cleanRun.result.Throughput
	T := float64(env.SampleOps) / clean

	// The network conditions replayed against the standard workload.
	scenarios := []struct {
		name  string
		sched fault.Schedule
	}{
		{"flaky c->0 (drop 40%)", fault.Schedule{
			{Kind: fault.NetFlaky, Node: fault.CoordinatorEndpoint, Peer: 0,
				At: 0.10 * T, Until: 0.70 * T, DropProb: 0.4},
		}},
		{"dup+delay on 0->c", fault.Schedule{
			{Kind: fault.NetDup, Node: 0, Peer: fault.CoordinatorEndpoint,
				At: 0.10 * T, Until: 0.70 * T, DupProb: 0.5},
			{Kind: fault.NetDelay, Node: 0, Peer: fault.CoordinatorEndpoint,
				At: 0.10 * T, Until: 0.70 * T, DelayFactor: 8},
		}},
		{"partition c->1", fault.Schedule{
			{Kind: fault.Partition, Node: fault.CoordinatorEndpoint, Peer: 1,
				At: 0.20 * T, Until: 0.60 * T},
		}},
	}

	t := Table{
		Title:  "The same seeded workload under simulated network conditions (3 nodes, RF=3, QUORUM, RR=50%)",
		Header: []string{"network", "aops", "vs clean", "msgs sent", "dropped", "part drops", "dup copies", "hinted writes", "read repairs", "unavail reads"},
	}
	row := func(name string, r postureRun) {
		ns, st := r.c.Net().Stats(), r.c.Stats()
		t.Rows = append(t.Rows, []string{
			name, f0(r.result.Throughput), pct(r.result.Throughput/clean - 1),
			fmt.Sprint(ns.Sent), fmt.Sprint(ns.Dropped), fmt.Sprint(ns.PartitionDrops),
			fmt.Sprint(ns.Duplicated), fmt.Sprint(st.HintsStored),
			fmt.Sprint(st.ReadRepairs), fmt.Sprint(st.UnavailableReads),
		})
	}
	row("clean", cleanRun)
	for _, sc := range scenarios {
		r, err := run(res, sc.sched)
		if err != nil {
			return Report{}, fmt.Errorf("bench: scenario %s: %w", sc.name, err)
		}
		row(sc.name, r)
	}

	return Report{
		ID:     "netsim",
		Title:  "Network simulation: replica traffic as messages under seeded link faults",
		Tables: []Table{t},
		Notes: []string{
			"every replica read, write, hint replay, and repair crosses the simulated network; partitions and drops therefore hit exactly the operations a real network would lose",
			"dropped quorum-write responses become hints (the write happened but the ack was lost), and a flaky read path drives read repair: replicas that missed a version are patched back on the next successful quorum read",
		},
	}, nil
}

// chaosSeedSet is the fixed exploration set used by Chaos and by
// `make chaos`: small enough to stay a smoke test, wide enough that
// schedule generation covers partitions, flaky/dup/delay links, node
// failures, restarts, and log corruption.
func chaosSeedSet() []int64 {
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// chaosTable renders one exploration's per-seed results and describes
// its corruption-free violations (what fails the gate): the seed, the
// reproducer's length and its first violation.
func chaosTable(title, mix string, rep *check.ChaosReport) (Table, []string) {
	t := Table{
		Title:  title,
		Header: []string{"seed", "events", "ops", "violations", "undecided", "verdict", "reproducer events", "shrink runs"},
	}
	var violations []string
	for _, res := range rep.Results {
		repro := "-"
		shrunk := "-"
		if res.Verdict != check.VerdictOK {
			repro = fmt.Sprint(len(res.Reproducer))
			shrunk = fmt.Sprint(res.ShrinkRuns)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(res.Seed), fmt.Sprint(res.Events), fmt.Sprint(res.Ops),
			fmt.Sprint(res.Violations), fmt.Sprint(res.Undecided),
			res.Verdict, repro, shrunk,
		})
		if res.Verdict == check.VerdictViolation {
			violations = append(violations, fmt.Sprintf("%s seed %d: %d-event reproducer, first violation %s",
				mix, res.Seed, len(res.Reproducer), res.First))
		}
	}
	return t, violations
}

// Chaos runs the consistency chaos search: each seed generates a
// fault+network schedule, replays a concurrent workload under it,
// records the operation history, and checks read-your-writes,
// monotonic reads, and single-key linearizability. Any failing
// schedule is shrunk to a minimal reproducer. The suite runs two
// explorations — the classic 3-node fault mix, and a 16-node RF=3 ring
// whose schedules also draw joins, decommissions, and rolling restarts
// so consistency is checked with rebalances in flight. A
// corruption-free reproducer (verdict "violation") in either phase
// means a real protocol bug and fails the report's gate, which is what
// lets `make chaos` gate CI on it.
func Chaos(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	rep, err := check.RunChaos(check.ChaosConfig{Seeds: chaosSeedSet(), Events: 8})
	if err != nil {
		return Report{}, err
	}
	// Topology phase: a 16-node RF=3 ring whose event mix includes
	// AddNode, DecommissionNode, and RollingRestart, so node failures,
	// partitions, and corruption race streaming rebalances.
	topoRep, err := check.RunChaos(check.ChaosConfig{
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}, Nodes: 16, RF: 3,
		Events: 8, Topology: true,
	})
	if err != nil {
		return Report{}, err
	}

	t, violations := chaosTable(
		"Chaos search over seeded fault+network schedules (3 nodes, RF=3, QUORUM/QUORUM)", "fault mix", rep)
	tt, topoViolations := chaosTable(
		"Topology chaos: joins, decommissions, and rolling restarts racing rebalance (16 nodes, RF=3, QUORUM/QUORUM)", "topology mix", topoRep)
	violations = append(violations, topoViolations...)

	verdict := gate(len(violations) == 0,
		"no corruption-free reproducer, which would mean the replication protocol itself violated consistency (worst verdict: %s fault mix, %s topology mix)",
		rep.Worst(), topoRep.Worst())
	for _, v := range violations {
		verdict.Text += "; " + v
	}
	return Report{
		ID:     "chaos",
		Title:  "Chaos search: consistency checking under explored fault schedules",
		Tables: []Table{t, tt},
		Notes: []string{
			"data-loss verdicts have reproducers containing log corruption or corrupted restarts: acknowledged state was destroyed, which the current durability model permits; they are reported, not failed on",
			"topology schedules keep every decommission feasible (members never dip below RF), including through shrinking, so a reproducer is always a runnable schedule",
		},
		Claims: []Claim{verdict},
	}, nil
}
