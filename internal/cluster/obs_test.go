package cluster_test

import (
	"testing"

	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/fault"
	"rafiki/internal/golden"
	"rafiki/internal/obs"
	"rafiki/internal/workload"
)

// statsObsCase is one seeded fault schedule a cluster runs under in
// TestStatsObsGolden and TestStatsObsReconcile.
type statsObsCase struct {
	name  string
	seed  int64
	res   cluster.ResilienceOptions
	sched fault.Schedule
	// expectations about which event classes must actually occur,
	// so the reconciliation is not vacuously 0 == 0.
	wantTransient bool
	wantRetries   bool
	wantTimeouts  bool
	wantHints     bool
	// wantConverged asserts stored == replayed + dropped: it holds
	// when every hint-producing fault ends in a recovery edge
	// (outage recovery, straggler healing). Hints produced by pure
	// transient-exhaustion have no such edge and stay buffered.
	wantConverged bool
}

const statsObsHorizon = 1e6 // covers any run; Finish() fires the ends

var statsObsCases = []statsObsCase{
	{
		name: "transient-window-with-retries",
		seed: 11,
		res: func() cluster.ResilienceOptions {
			r := cluster.PassiveResilience()
			r.MaxRetries = 3
			r.BackoffBase = 1e-6
			r.BackoffMax = 25e-6
			return r
		}(),
		sched: fault.Schedule{
			{Kind: fault.Transient, Node: 0, At: 1e-9, Until: statsObsHorizon, FailProb: 0.3},
			{Kind: fault.Transient, Node: 2, At: 1e-9, Until: statsObsHorizon, FailProb: 0.1},
		},
		wantTransient: true,
		wantRetries:   true,
	},
	{
		name: "straggler-timeouts-and-outage-hints",
		seed: 23,
		res: func() cluster.ResilienceOptions {
			r := cluster.DefaultResilienceOptions()
			r.BackoffBase = 1e-6
			r.BackoffMax = 25e-6
			r.ExpectedOpSeconds = 1e-6
			r.OpTimeout = 10e-6 // a 30x straggler blows through this
			return r
		}(),
		sched: fault.Schedule{
			{Kind: fault.Slow, Node: 1, At: 1e-9, Until: statsObsHorizon, DiskTax: 30, CPUTax: 4},
			{Kind: fault.Fail, Node: 2, At: 1e-9, Until: statsObsHorizon},
		},
		wantTimeouts:  true,
		wantHints:     true,
		wantConverged: true,
	},
}

// statsObsRun drives a three-node QUORUM cluster through tc's schedule
// under a 30k-op workload and returns it with its registry.
func statsObsRun(t *testing.T, tc statsObsCase) (*cluster.Cluster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c, err := cluster.New(cluster.Options{
		Nodes:             3,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              tc.seed,
		EpochOps:          128,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(1)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetResilience(tc.res); err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(c, tc.sched, tc.seed^0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultInjector(inj)
	h := fault.NewHarness(c, inj)
	if _, err := workload.Run(h, workload.Spec{
		ReadRatio: 0.5,
		KRDMean:   0.3 * float64(c.KeySpace()),
		Ops:       30_000,
		Seed:      tc.seed + 7,
	}); err != nil {
		t.Fatal(err)
	}
	inj.Finish()
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	return c, reg
}

// TestStatsObsGolden pins the registry snapshot each statsObsCases run
// leaves: the coordinator's ledger, the network's and the engines'.
func TestStatsObsGolden(t *testing.T) {
	for _, tc := range statsObsCases {
		t.Run(tc.name, func(t *testing.T) {
			_, reg := statsObsRun(t, tc)
			snap, err := reg.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "testdata/obs_"+tc.name+".json", snap)
		})
	}
}

// TestStatsObsReconcile drives the cluster under two seeded fault
// schedules and asserts that the ledger keeps its books:
//
//   - the attempt protocol partitions exactly:
//     OpAttempts == OpSuccesses + TransientFailures + Timeouts
//   - BreakerRejections,
//     with Retries the backoff-retried subset of attempts, and
//   - hint flow conserves: stored == replayed + dropped once every
//     outage has recovered.
func TestStatsObsReconcile(t *testing.T) {
	for _, tc := range statsObsCases {
		t.Run(tc.name, func(t *testing.T) {
			c, reg := statsObsRun(t, tc)
			st := c.Stats()

			// The attempt protocol must partition exactly.
			sum := st.OpSuccesses + st.TransientFailures + st.Timeouts + st.BreakerRejections
			if st.OpAttempts != sum {
				t.Errorf("OpAttempts = %d, but successes+transient+timeouts+breaker rejections = %d", st.OpAttempts, sum)
			}
			if st.Retries > st.OpAttempts {
				t.Errorf("Retries = %d exceeds OpAttempts = %d", st.Retries, st.OpAttempts)
			}
			if st.OpAttempts == 0 {
				t.Error("no op attempts recorded at all")
			}

			// Hint flow: never more replayed or dropped than stored, and
			// full conservation once every fault has a recovery edge.
			if got := st.HintsReplayed + st.HintsDropped; got > st.HintsStored {
				t.Errorf("hints replayed+dropped = %d exceeds stored = %d", got, st.HintsStored)
			}
			if tc.wantConverged && st.HintsStored != st.HintsReplayed+st.HintsDropped {
				t.Errorf("hints stored = %d, replayed+dropped = %d (cluster not converged)",
					st.HintsStored, st.HintsReplayed+st.HintsDropped)
			}

			// The schedule must actually have exercised its event class.
			if tc.wantTransient && st.TransientFailures == 0 {
				t.Error("schedule produced no transient failures")
			}
			if tc.wantRetries && st.Retries == 0 {
				t.Error("posture produced no retries")
			}
			if tc.wantTimeouts && st.Timeouts == 0 {
				t.Error("schedule produced no timeouts")
			}
			if tc.wantHints && st.HintsStored == 0 {
				t.Error("schedule produced no hints")
			}

			// Node reads can only come from coordinator reads and node
			// writes from mutations, hint replays, and repairs; every
			// node's engine exports to the one shared registry.
			if st.Reads == 0 || st.Mutations == 0 {
				t.Error("coordinator op counters empty")
			}
			if cnt := reg.Snapshot().Counters; cnt["nosql.reads"] < st.Reads || cnt["nosql.writes"] < st.Mutations {
				t.Errorf("shared registry missing per-node engine counters: %d reads, %d writes",
					cnt["nosql.reads"], cnt["nosql.writes"])
			}
		})
	}
}

// TestPartitionLossChargedToDistinctCounter partitions one
// coordinator<->replica link under a seeded schedule and asserts that
// the resulting waited-out exchanges land on cluster.rpc_lost_timeouts,
// not cluster.op_timeouts: a severed link and a straggling replica must
// be distinguishable in snapshots even though the coordinator
// experiences both as "no ack within the op timeout".
func TestPartitionLossChargedToDistinctCounter(t *testing.T) {
	const seed = 41
	reg := obs.NewRegistry()
	c, err := cluster.New(cluster.Options{
		Nodes:             3,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              seed,
		EpochOps:          128,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(1)
	res := cluster.DefaultResilienceOptions()
	res.BackoffBase = 1e-6
	res.BackoffMax = 25e-6
	res.ExpectedOpSeconds = 1e-6
	res.OpTimeout = 20e-6
	if err := c.SetResilience(res); err != nil {
		t.Fatal(err)
	}
	// Sever both directions of the coordinator<->node-0 link for the
	// whole run; no node is slow, so the straggler path never fires.
	sched := fault.Schedule{
		{Kind: fault.Partition, Node: fault.CoordinatorEndpoint, Peer: 0, At: 1e-9, Until: 1e6},
		{Kind: fault.Partition, Node: 0, Peer: fault.CoordinatorEndpoint, At: 1e-9, Until: 1e6},
	}
	inj, err := fault.NewInjector(c, sched, seed^0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultInjector(inj)
	h := fault.NewHarness(c, inj)
	if _, err := workload.Run(h, workload.Spec{
		ReadRatio: 0.5,
		KRDMean:   0.3 * float64(c.KeySpace()),
		Ops:       5_000,
		Seed:      seed + 7,
	}); err != nil {
		t.Fatal(err)
	}
	inj.Finish()
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	cnt := reg.Snapshot().Counters
	if cnt["cluster.rpc_lost_timeouts"] == 0 {
		t.Error("partitioned link produced no rpc_lost_timeouts")
	}
	if cnt["cluster.op_timeouts"] != 0 {
		t.Errorf("op_timeouts = %d, want 0: no replica is degraded", cnt["cluster.op_timeouts"])
	}
	// Every loss charged the coordinator its op-timeout patience.
	if c.Clock() == 0 {
		t.Error("waited-out exchanges charged no coordinator time")
	}
	// The writes the lost exchanges failed to deliver are owed as hints.
	if st.HintsStored == 0 {
		t.Error("lost writes were not hinted")
	}
}

// TestStatsLedgerNames pins the counter names Stats exports to the 29
// the coordinator's obs twin published.
func TestStatsLedgerNames(t *testing.T) {
	golden.Names(t, new(cluster.Stats),
		"cluster.breaker_opens", "cluster.breaker_rejections", "cluster.forwarded_writes",
		"cluster.hints_dropped", "cluster.hints_replayed", "cluster.hints_stored", "cluster.mutations",
		"cluster.op_attempts", "cluster.op_retries", "cluster.op_successes", "cluster.op_timeouts",
		"cluster.op_transient_failures", "cluster.read_repairs", "cluster.reads", "cluster.repaired_keys",
		"cluster.repairs", "cluster.retries_suppressed", "cluster.rpc_lost_timeouts", "cluster.scans",
		"cluster.speculative_reads", "cluster.unacked_writes", "cluster.unavailable_reads",
		"cluster.unavailable_scans", "cluster.unavailable_writes",
		"ring.ranges_moved", "ring.streamed_cells", "ring.streams_completed", "ring.streams_severed",
		"ring.streams_started")
}
