package cluster

import (
	"fmt"

	"rafiki/internal/nosql"
)

// ConsistencyLevel selects how many replicas a read must consult.
type ConsistencyLevel int

// Supported read consistency levels. The paper's throughput-oriented
// benchmarks run at ONE; QUORUM and ALL trade throughput for recency,
// and their cost shows up directly in the simulator because every
// consulted replica performs the read.
const (
	ConsistencyOne ConsistencyLevel = iota + 1
	ConsistencyQuorum
	ConsistencyAll
)

// String implements fmt.Stringer.
func (cl ConsistencyLevel) String() string {
	switch cl {
	case ConsistencyOne:
		return "ONE"
	case ConsistencyQuorum:
		return "QUORUM"
	case ConsistencyAll:
		return "ALL"
	default:
		return fmt.Sprintf("ConsistencyLevel(%d)", int(cl))
	}
}

// replicasNeeded returns how many live replicas a read requires.
func (cl ConsistencyLevel) replicasNeeded(rf int) int {
	switch cl {
	case ConsistencyQuorum:
		return rf/2 + 1
	case ConsistencyAll:
		return rf
	default:
		return 1
	}
}

// Stats counts cluster-level availability and resilience events. The
// coordinator's own copy is its one always-on ledger: a cluster built
// with Options.Obs exports it, and a registry snapshot reports each
// field under its `obs` name (see obs.Registry.Export).
//
// The attempt protocol partitions exactly: every attempt is a success,
// a transient failure, a timeout fast-fail, or a breaker rejection, so
//
//	OpAttempts == OpSuccesses + TransientFailures + Timeouts + BreakerRejections
//
// with Retries the backoff-retried subset of attempts.
type Stats struct {
	// Reads, Mutations and Scans count coordinator operations issued.
	Reads     uint64 `obs:"cluster.reads"`
	Mutations uint64 `obs:"cluster.mutations"`
	Scans     uint64 `obs:"cluster.scans"`
	// OpAttempts counts replica op attempts (first tries and retries)
	// and OpSuccesses those the replica went on to serve.
	OpAttempts  uint64 `obs:"cluster.op_attempts"`
	OpSuccesses uint64 `obs:"cluster.op_successes"`
	// UnavailableReads/Writes/Scans count operations that could not
	// reach the required replicas.
	UnavailableReads  uint64 `obs:"cluster.unavailable_reads"`
	UnavailableWrites uint64 `obs:"cluster.unavailable_writes"`
	UnavailableScans  uint64 `obs:"cluster.unavailable_scans"`
	// HintsStored counts writes buffered for a down replica and
	// HintsReplayed those delivered on recovery.
	HintsStored   uint64 `obs:"cluster.hints_stored"`
	HintsReplayed uint64 `obs:"cluster.hints_replayed"`
	// HintsDropped counts hints lost to the per-node buffer cap; each
	// drop marks the node for a full repair on recovery.
	HintsDropped uint64 `obs:"cluster.hints_dropped"`
	// TransientFailures counts replica op attempts the fault injector
	// failed, and Retries the backoff-retried attempts among them.
	TransientFailures uint64 `obs:"cluster.op_transient_failures"`
	Retries           uint64 `obs:"cluster.op_retries"`
	// Timeouts counts ops the coordinator abandoned because the target
	// replica was degraded beyond the per-op timeout.
	Timeouts uint64 `obs:"cluster.op_timeouts"`
	// RPCLostTimeouts counts exchanges whose request or response the
	// network lost outright: the coordinator waited out its op timeout
	// without an ack. Kept distinct from Timeouts so a partitioned or
	// lossy link is distinguishable from a straggling replica; they
	// follow a successful attempt, so they are not part of the attempt
	// partition.
	RPCLostTimeouts uint64 `obs:"cluster.rpc_lost_timeouts"`
	// BreakerOpens counts per-replica-link circuit-breaker open and
	// re-open transitions; BreakerRejections counts op attempts an open
	// breaker rejected without spending any coordinator wait.
	BreakerOpens      uint64 `obs:"cluster.breaker_opens"`
	BreakerRejections uint64 `obs:"cluster.breaker_rejections"`
	// RetriesSuppressed counts backoff retries skipped because the
	// link's retry budget was exhausted.
	RetriesSuppressed uint64 `obs:"cluster.retries_suppressed"`
	// SpeculativeReads counts straggler consultations avoided by
	// routing a read to a healthier backup replica.
	SpeculativeReads uint64 `obs:"cluster.speculative_reads"`
	// Repairs counts full node repairs and RepairedKeys the key states
	// streamed by them.
	Repairs      uint64 `obs:"cluster.repairs"`
	RepairedKeys uint64 `obs:"cluster.repaired_keys"`
	// ReadRepairs counts stale replicas converged on the read path
	// after a consulted set disagreed on a key's version.
	ReadRepairs uint64 `obs:"cluster.read_repairs"`
	// UnackedWrites counts writes acknowledged by at least one replica
	// but fewer than the write consistency level requires.
	UnackedWrites uint64 `obs:"cluster.unacked_writes"`
	// RangesMoved counts token ranges scheduled to change owners by
	// topology changes (AddNode/DecommissionNode).
	RangesMoved uint64 `obs:"ring.ranges_moved"`
	// StreamsStarted/Completed/Severed count rebalance stream
	// lifecycle events: established on the source, finished with the
	// delta handoff, or interrupted (loss, crash, down endpoint,
	// superseding topology change) and re-established from scratch.
	StreamsStarted   uint64 `obs:"ring.streams_started"`
	StreamsCompleted uint64 `obs:"ring.streams_completed"`
	StreamsSevered   uint64 `obs:"ring.streams_severed"`
	// StreamedCells counts key states delivered over rebalance
	// streams (catch-up chunks plus delta pushes).
	StreamedCells uint64 `obs:"ring.streamed_cells"`
	// ForwardedWrites counts live writes forwarded to a pending
	// range's catching-up destination (never counted toward the ack
	// quorum).
	ForwardedWrites uint64 `obs:"cluster.forwarded_writes"`
}

// SetReadConsistency selects the read consistency level (default ONE).
func (c *Cluster) SetReadConsistency(cl ConsistencyLevel) error {
	switch cl {
	case ConsistencyOne, ConsistencyQuorum, ConsistencyAll:
		c.readCL = cl
		return nil
	default:
		return fmt.Errorf("cluster: unknown consistency level %d", int(cl))
	}
}

// SetWriteConsistency selects the write consistency level (default
// ONE): a mutation acknowledged by fewer replicas counts as unacked
// (or unavailable, when no replica acknowledged at all).
func (c *Cluster) SetWriteConsistency(cl ConsistencyLevel) error {
	switch cl {
	case ConsistencyOne, ConsistencyQuorum, ConsistencyAll:
		c.writeCL = cl
		return nil
	default:
		return fmt.Errorf("cluster: unknown consistency level %d", int(cl))
	}
}

// WeakenReadQuorumForTest toggles an intentionally seeded consistency
// bug: QUORUM/ALL reads serve from a single replica while still
// claiming their configured level, breaking the read/write quorum
// intersection. It exists so the consistency checkers (internal/check)
// have a real bug to catch and must never be enabled outside tests.
func (c *Cluster) WeakenReadQuorumForTest(on bool) {
	c.weakRead = on
}

// Stats returns the availability counters.
func (c *Cluster) Stats() Stats { return *c.stats }

// FailNode marks node i down: reads route around it, writes destined
// for it are buffered as hints on the coordinator (hinted handoff).
func (c *Cluster) FailNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if c.down[i] {
		return fmt.Errorf("cluster: node %d is already down", i)
	}
	c.down[i] = true
	return nil
}

// RecoverNode brings node i back, replays its buffered hints as
// writes, and — if the hint buffer overflowed during the outage — runs
// a full repair, restoring replica convergence either way.
func (c *Cluster) RecoverNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if !c.down[i] {
		return fmt.Errorf("cluster: node %d is not down", i)
	}
	c.down[i] = false
	c.replayHints(i)
	return nil
}

// replayHints delivers node i's buffered hints as messages and, when
// the buffer overflowed, follows with a full repair. A hint the
// network loses in transit is still owed and goes back in the buffer.
func (c *Cluster) replayHints(i int) {
	pending := c.hints[i]
	c.hints[i] = nil
	for _, h := range pending {
		if _, _, ok := c.exchange(i, i, message{kind: msgWrite, key: h.key, c: h.c}); !ok {
			c.addHint(i, h)
			continue
		}
		c.stats.HintsReplayed++
	}
	if c.needRepair[i] {
		c.fullRepair(i)
	}
}

// fullRepair streams every key node i owns from a live peer replica,
// rewriting the key's current state (live value or tombstone) on node
// i. The source's state is fetched with a repair introspection message
// and the rewrite travels as a normal versioned write, so repair
// traffic is subject to the same network faults as serving traffic. It
// is the convergence path of last resort after hint loss; the write
// work is charged to the recovering node, standing in for the
// streaming cost of a real repair.
func (c *Cluster) fullRepair(i int) {
	c.stats.Repairs++
	c.needRepair[i] = false
	for key := uint64(0); key < uint64(c.KeySpace()); key++ {
		owned := false
		src := -1
		for _, idx := range c.replicas(key) {
			if idx == i {
				owned = true
				continue
			}
			if !c.down[idx] && src == -1 {
				src = idx
			}
		}
		if !owned || src == -1 {
			continue
		}
		st, _, ok := c.exchange(src, src, message{kind: msgState, key: key})
		if !ok || !st.has {
			continue
		}
		wc := st.c
		if !st.hasVer {
			// Preloaded state predating versioning: stream it at the
			// floor version so any versioned write still beats it.
			wc = newCell(0, !st.alive)
		}
		if _, _, ok := c.exchange(i, i, message{kind: msgWrite, key: key, c: wc}); !ok {
			continue
		}
		c.stats.RepairedKeys++
	}
}

// RestartNode crash-restarts node i's engine: RAM state is lost and the
// commit log replays, charging the downtime to the node's clock. The
// replica's recent versioned applies replay the same way — any records
// torn by log corruption are lost.
func (c *Cluster) RestartNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	c.nodes[i].Restart()
	c.reps[i].restart()
	return nil
}

// SetNodeDegradation installs straggler multipliers on node i (1,1 =
// healthy). When the node returns below the coordinator's timeout
// horizon, mutations hinted while it was too slow are replayed.
func (c *Cluster) SetNodeDegradation(i int, diskTax, cpuTax float64) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	c.nodes[i].SetDegradation(diskTax, cpuTax)
	if !c.down[i] && !c.timedOut(i) && (len(c.hints[i]) > 0 || c.needRepair[i]) {
		c.replayHints(i)
	}
	return nil
}

// CorruptNodeLog tears the newest fraction of node i's commit-log tail;
// the loss surfaces at the node's next restart, which then also loses
// the same fraction of the replica's recent versioned applies. It
// returns the number of engine log records lost.
func (c *Cluster) CorruptNodeLog(i int, fraction float64) (int, error) {
	if i < 0 || i >= len(c.nodes) {
		return 0, fmt.Errorf("cluster: no node %d", i)
	}
	c.reps[i].corruptTail(fraction)
	return c.nodes[i].CorruptLogTail(fraction), nil
}

// Engine returns node i's engine for inspection (nil if out of range).
func (c *Cluster) Engine(i int) *nosql.Engine {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// LiveNodes returns how many nodes are up.
func (c *Cluster) LiveNodes() int {
	n := 0
	for _, d := range c.down {
		if !d {
			n++
		}
	}
	return n
}
