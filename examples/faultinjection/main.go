// Faultinjection: replay a deterministic fault schedule — transient
// failures, a fail-stop outage, a crash-restart with a torn commit log,
// and a persistent straggler — against a replicated cluster under two
// coordinator postures, showing what the resilience stack (retries,
// per-op timeouts, speculative reads) buys and that the same seed
// reproduces the same run bit for bit.
package main

import (
	"fmt"
	"log"

	"rafiki"
)

const ops = 30_000

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type outcome struct {
	throughput float64
	stats      rafiki.ClusterStats
	lost       int
}

// runPosture replays the schedule against a fresh 3-node RF=3 cluster
// with QUORUM reads under the given coordinator posture. When reg is
// non-nil the run's telemetry (engine counters, coordinator attempt
// protocol, flush/compaction spans) accumulates there.
func runPosture(res rafiki.ResilienceOptions, sched rafiki.FaultSchedule, reg *rafiki.ObsRegistry) (outcome, error) {
	c, err := rafiki.NewCluster(rafiki.ClusterOptions{
		Nodes:             3,
		ReplicationFactor: 3,
		Space:             rafiki.CassandraSpace(),
		Seed:              11,
		EpochOps:          128, // fine-grained clocks so no fault window slips between epochs
		Obs:               reg,
	})
	if err != nil {
		return outcome{}, err
	}
	c.Preload(2)
	if err := c.SetReadConsistency(rafiki.ConsistencyQuorum); err != nil {
		return outcome{}, err
	}
	if err := c.SetResilience(res); err != nil {
		return outcome{}, err
	}
	inj, err := rafiki.NewFaultInjector(c, sched, 42)
	if err != nil {
		return outcome{}, err
	}
	c.SetFaultInjector(inj)
	h := rafiki.NewFaultHarness(c, inj)
	res2, err := rafiki.RunWorkload(h, rafiki.WorkloadSpec{
		ReadRatio: 0.5,
		KRDMean:   0.5 * float64(c.KeySpace()),
		Ops:       ops,
		Seed:      7,
	})
	if err != nil {
		return outcome{}, err
	}
	inj.Finish() // fire recoveries scheduled past the run's end
	if err := inj.Err(); err != nil {
		return outcome{}, err
	}
	return outcome{throughput: res2.Throughput, stats: c.Stats(), lost: inj.LostRecords()}, nil
}

func run() error {
	// Healthy baseline fixes the schedule's virtual-time base.
	healthy, err := runPosture(rafiki.PassiveResilience(), nil, nil)
	if err != nil {
		return err
	}
	T := float64(ops) / healthy.throughput
	fmt.Printf("healthy baseline: %.0f aops over %.3f virtual seconds\n\n", healthy.throughput, T)

	sched := rafiki.FaultSchedule{
		{Kind: rafiki.FaultTransient, Node: 0, At: 0.08 * T, Until: 0.45 * T, FailProb: 0.15},
		{Kind: rafiki.FaultFail, Node: 2, At: 0.25 * T, Until: 0.40 * T},
		{Kind: rafiki.FaultRestart, Node: 0, At: 0.55 * T, CorruptFraction: 0.3},
		{Kind: rafiki.FaultSlow, Node: 1, At: 0.65 * T, Until: 20 * T, DiskTax: 25, CPUTax: 4},
	}
	fmt.Println("schedule: transient failures on node 0, node 2 fail-stop inside that window,")
	fmt.Println("node 0 crash-restart with 30% of its commit-log tail torn, then node 1")
	fmt.Println("degrades 25x for the rest of the run")

	// The full stack scales its time constants to the healthy per-op
	// cost, as a dynamic snitch derives timeouts from observed latency.
	perOp := T / float64(ops)
	full := rafiki.DefaultResilienceOptions().ScaledTo(perOp)

	fmt.Println("\n-- no resilience (hinted handoff only) --")
	none, err := runPosture(rafiki.PassiveResilience(), sched, nil)
	if err != nil {
		return err
	}
	report(none, healthy)

	fmt.Println("\n-- full stack (retries + timeouts + speculative reads) --")
	reg := rafiki.NewObsRegistry()
	fullOut, err := runPosture(full, sched, reg)
	if err != nil {
		return err
	}
	report(fullOut, healthy)

	again, err := runPosture(full, sched, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\ndeterminism: rerun at the same seed identical = %v\n",
		again.throughput == fullOut.throughput && again.stats == fullOut.stats && again.lost == fullOut.lost)
	fmt.Printf("resilience retained %.1fx the unprotected throughput under the same adversity\n",
		fullOut.throughput/none.throughput)

	// The full-stack run carried an observability registry: render what
	// the instrumented hot paths recorded, from engine flushes to the
	// coordinator's retry protocol.
	fmt.Println("\n-- observability dashboard for the full-stack run --")
	fmt.Println(reg.Snapshot().Dashboard())
	return nil
}

func report(o, healthy outcome) {
	fmt.Printf("throughput %.0f aops (%.1f%% of healthy)\n", o.throughput, 100*o.throughput/healthy.throughput)
	fmt.Printf("unavailable QUORUM reads %d, hinted writes %d, transient failures %d (%d retried),\n",
		o.stats.UnavailableReads, o.stats.HintsStored, o.stats.TransientFailures, o.stats.Retries)
	fmt.Printf("timeouts %d, speculative reads %d, commit-log records lost %d\n",
		o.stats.Timeouts, o.stats.SpeculativeReads, o.lost)
}
