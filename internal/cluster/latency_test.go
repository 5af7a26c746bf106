package cluster

import (
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/netsim"
)

// newLatencyCluster is a healthy 3-node RF=3 QUORUM cluster on the
// perfect network, per-op epochs (so a node's clock advances exactly
// while it serves a message), with an op timeout far above any leg's
// service time. On the perfect network a leg's time is its node's clock
// advance alone, which the tests read off the engines.
func newLatencyCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{Nodes: 3, ReplicationFactor: 3, Space: config.Cassandra(), Seed: 5, EpochOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	res := DefaultResilienceOptions()
	res.OpTimeout, res.ExpectedOpSeconds = 0.5, 1e-6
	res.BreakerFailures, res.BreakerCooldown = 5, 1
	if err := c.SetResilience(res); err != nil {
		t.Fatal(err)
	}
	return c
}

// nodeClocks snapshots every node's clock.
func nodeClocks(c *Cluster) []float64 {
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Clock()
	}
	return out
}

// TestQuorumWriteCompletesAtSecondAck: a QUORUM write whose third
// replica is partitioned away completes when its second ack lands. The
// lost leg's op timeout stays off the request's path, yet the replica
// is still owed the write as a hint and its link's breaker still counts
// the failure.
func TestQuorumWriteCompletesAtSecondAck(t *testing.T) {
	c := newLatencyCluster(t)
	const key = 42
	owners := append([]int(nil), c.replicas(key)...)
	if err := c.Net().Partition(netsim.Coordinator, owners[2], 0); err != nil {
		t.Fatal(err)
	}
	before := nodeClocks(c)
	w := c.WriteOp(key)
	after := nodeClocks(c)
	if !w.OK || w.Acked != 2 {
		t.Fatalf("write %+v, want QUORUM met by two acks", w)
	}
	second := max(after[owners[0]]-before[owners[0]], after[owners[1]]-before[owners[1]])
	if second <= 0 || w.Latency != second {
		t.Errorf("latency %v, want the second ack's %v", w.Latency, second)
	}
	if w.Latency >= c.res.OpTimeout {
		t.Errorf("latency %v holds the lost leg's op timeout %v", w.Latency, c.res.OpTimeout)
	}
	st := c.Stats()
	if st.HintsStored != 1 || len(c.hints[owners[2]]) != 1 {
		t.Errorf("hints stored %d (node %d owes %d), want the partitioned replica's one", st.HintsStored, owners[2], len(c.hints[owners[2]]))
	}
	if st.RPCLostTimeouts != 1 || c.brk[owners[2]].fails != 1 {
		t.Errorf("lost exchanges %d, breaker streak %d on node %d; want 1 and 1", st.RPCLostTimeouts, c.brk[owners[2]].fails, owners[2])
	}
}

// TestQuorumReadReplacesLostLeg: a QUORUM read whose first consulted
// leg is lost learns so after its op timeout and only then starts the
// replacement leg, so it completes at that timeout plus the
// replacement's own time; the second leg ran alongside and finished
// long before.
func TestQuorumReadReplacesLostLeg(t *testing.T) {
	c := newLatencyCluster(t)
	const key = 42
	c.WriteOp(key) // every replica at one version: the read repairs nothing
	rot := c.rotation
	order, ok := c.consultOrder(c.replicas(key), &rot, c.readNeed())
	if !ok {
		t.Fatal("no consult order")
	}
	order = append([]int(nil), order...)
	if err := c.Net().Partition(netsim.Coordinator, order[0], 0); err != nil {
		t.Fatal(err)
	}
	before := nodeClocks(c)
	r := c.ReadOp(key)
	after := nodeClocks(c)
	if !r.OK || r.Served != 2 {
		t.Fatalf("read %+v, want QUORUM met by two answers", r)
	}
	if after[order[0]] != before[order[0]] {
		t.Errorf("partitioned node %d served the read", order[0])
	}
	replacement := after[order[2]] - before[order[2]]
	if want := c.res.OpTimeout + replacement; replacement <= 0 || r.Latency != want {
		t.Errorf("latency %v, want op timeout %v + replacement leg %v = %v", r.Latency, c.res.OpTimeout, replacement, want)
	}
	if st := c.Stats(); st.RPCLostTimeouts != 1 || st.ReadRepairs != 0 {
		t.Errorf("lost exchanges %d, read repairs %d; want 1 and 0", st.RPCLostTimeouts, st.ReadRepairs)
	}
}
