package cluster

import (
	"maps"
	"testing"
	"unsafe"
)

func TestConsistencyLevelString(t *testing.T) {
	tests := []struct {
		give ConsistencyLevel
		want string
	}{
		{ConsistencyOne, "ONE"},
		{ConsistencyQuorum, "QUORUM"},
		{ConsistencyAll, "ALL"},
		{ConsistencyLevel(9), "ConsistencyLevel(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestReplicasNeeded(t *testing.T) {
	tests := []struct {
		cl   ConsistencyLevel
		rf   int
		want int
	}{
		{ConsistencyOne, 3, 1},
		{ConsistencyQuorum, 3, 2},
		{ConsistencyQuorum, 2, 2},
		{ConsistencyAll, 3, 3},
	}
	for _, tt := range tests {
		if got := tt.cl.replicasNeeded(tt.rf); got != tt.want {
			t.Errorf("%v.replicasNeeded(%d) = %d, want %d", tt.cl, tt.rf, got, tt.want)
		}
	}
}

func TestSetReadConsistencyValidation(t *testing.T) {
	c := newTestCluster(t, 3, 3, nil)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadConsistency(ConsistencyLevel(42)); err == nil {
		t.Error("unknown level should error")
	}
}

func TestQuorumReadsCostMoreReplicas(t *testing.T) {
	one := newTestCluster(t, 3, 3, nil)
	one.Preload(1)
	for k := uint64(0); k < 5000; k++ {
		one.Read(k % uint64(one.KeySpace()))
	}
	one.FinishEpoch()

	quorum := newTestCluster(t, 3, 3, nil)
	if err := quorum.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	quorum.Preload(1)
	for k := uint64(0); k < 5000; k++ {
		quorum.Read(k % uint64(quorum.KeySpace()))
	}
	quorum.FinishEpoch()

	oneReads := one.Metrics().Reads
	quorumReads := quorum.Metrics().Reads
	if quorumReads != 2*oneReads {
		t.Errorf("quorum issued %d replica reads, want 2x ONE's %d", quorumReads, oneReads)
	}
}

func TestFailNodeValidation(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	if err := c.FailNode(-1); err == nil {
		t.Error("bad index should error")
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err == nil {
		t.Error("double-fail should error")
	}
	if err := c.RecoverNode(1); err == nil {
		t.Error("recovering a live node should error")
	}
	if err := c.RecoverNode(5); err == nil {
		t.Error("bad index should error")
	}
	if got := c.LiveNodes(); got != 1 {
		t.Errorf("LiveNodes = %d, want 1", got)
	}
}

func TestHintedHandoff(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	const writes = 1000
	for k := uint64(0); k < writes; k++ {
		c.Write(k)
	}
	c.FinishEpoch()
	st := c.Stats()
	if st.HintsStored != writes {
		t.Errorf("HintsStored = %d, want %d (RF=2, one node down)", st.HintsStored, writes)
	}
	if st.UnavailableWrites != 0 {
		t.Errorf("UnavailableWrites = %d; one live replica suffices", st.UnavailableWrites)
	}
	// The down node received nothing yet.
	if got := c.nodes[1].Metrics().Writes; got != 0 {
		t.Errorf("down node saw %d writes", got)
	}

	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	c.FinishEpoch()
	if got := c.Stats().HintsReplayed; got != writes {
		t.Errorf("HintsReplayed = %d, want %d", got, writes)
	}
	// Replica convergence: the recovered node now holds the writes.
	if got := c.nodes[1].Metrics().Writes; got != writes {
		t.Errorf("recovered node has %d writes, want %d", got, writes)
	}
	// Replaying twice is impossible: hints are drained.
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().HintsReplayed; got != writes {
		t.Errorf("hints replayed twice: %d", got)
	}
}

func TestReadsRouteAroundFailedNode(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	c.Preload(1)
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		c.Read(k % uint64(c.KeySpace()))
	}
	c.FinishEpoch()
	if got := c.Stats().UnavailableReads; got != 0 {
		t.Errorf("UnavailableReads = %d; the live replica should serve all", got)
	}
	if got := c.nodes[0].Metrics().Reads; got != 0 {
		t.Errorf("down node served %d reads", got)
	}
	if got := c.nodes[1].Metrics().Reads; got != 2000 {
		t.Errorf("live node served %d reads, want 2000", got)
	}
}

func TestQuorumUnavailableUnderFailure(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		c.Read(k)
	}
	if got := c.Stats().UnavailableReads; got != 100 {
		t.Errorf("UnavailableReads = %d, want 100 (quorum=2, one node down)", got)
	}
}

func TestAllReplicasDownWritesUnavailable(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 50; k++ {
		c.Write(k)
	}
	if got := c.Stats().UnavailableWrites; got != 50 {
		t.Errorf("UnavailableWrites = %d, want 50", got)
	}
}

func TestClusterDeletesAndHintedTombstones(t *testing.T) {
	c := newTestCluster(t, 2, 2, nil)
	c.Write(5)
	c.Delete(5)
	// Both replicas saw the delete.
	for i, n := range c.nodes {
		if n.Lookup(5) {
			t.Errorf("node %d still resolves key 5 live", i)
		}
	}

	// Delete while one replica is down: the tombstone is hinted and
	// replayed so the recovered node converges to "deleted".
	c.Write(6)
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	c.Delete(6)
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if c.nodes[1].Lookup(6) {
		t.Error("hinted tombstone not replayed; replicas diverged")
	}
}

func TestQuorumReadRepairAfterCorruptRestart(t *testing.T) {
	// Regression: a replica that crash-restarts mid-undo-window with a
	// fully torn commit-log tail rejoins with none of its recent
	// versioned state. QUORUM reads must keep returning the
	// acknowledged versions (the two intact replicas outvote the wiped
	// one) and read repair must stream the winning cells back until the
	// replica set converges again.
	c := newTestCluster(t, 3, 3, nil)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}

	const keys = 200
	version := make(map[uint64]int64, keys)
	for k := uint64(0); k < keys; k++ {
		res := c.WriteOp(k)
		if !res.OK {
			t.Fatalf("write %d not acked at QUORUM (acked=%d)", k, res.Acked)
		}
		version[k] = res.Version
	}
	// One tombstone so the repair path must also restore "deleted".
	del := uint64(keys / 2)
	version[del] = c.DeleteOp(del).Version

	// Crash node 0 with its entire log tail torn: everything in the
	// undo window rolls back and nothing untorn remains to re-apply.
	if _, err := c.CorruptNodeLog(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if got := len(c.reps[0].cur); got != 0 {
		t.Fatalf("node 0 kept %d versioned cells through a fully torn restart", got)
	}

	for k := uint64(0); k < keys; k++ {
		res := c.ReadOp(k)
		if !res.OK {
			t.Fatalf("key %d unavailable at QUORUM after restart", k)
		}
		if res.Version != version[k] {
			t.Fatalf("key %d read version %d, want acknowledged %d", k, res.Version, version[k])
		}
		if (k == del) != res.Deleted {
			t.Fatalf("key %d Deleted = %v, want %v", k, res.Deleted, k == del)
		}
	}
	if c.Stats().ReadRepairs == 0 {
		t.Fatal("no read repairs after a wiped replica rejoined the quorum")
	}

	// ALL reads touch every replica: this pass repairs whatever the
	// rotating QUORUM pass missed, and must still see every version.
	if err := c.SetReadConsistency(ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		res := c.ReadOp(k)
		if !res.OK || res.Version != version[k] {
			t.Fatalf("key %d at ALL: ok=%v version=%d, want %d", k, res.OK, res.Version, version[k])
		}
	}
	// Convergence: after one full ALL pass nothing is stale, so a
	// second pass performs zero additional repairs.
	before := c.Stats().ReadRepairs
	for k := uint64(0); k < keys; k++ {
		c.ReadOp(k)
	}
	if after := c.Stats().ReadRepairs; after != before {
		t.Errorf("replicas did not converge: ALL pass repaired %d more cells", after-before)
	}
}

// TestReplicaStateLayout pins the per-write state a replica keeps: a
// versioned cell is one word and a tail record three.
func TestReplicaStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(cell(0)); got != 8 {
		t.Errorf("cell is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(undoRec{}); got != 24 {
		t.Errorf("undoRec is %d bytes, want 24", got)
	}
}

// TestUndoRecPacksLosslessly checks that every combination of had, torn
// and the two tombstone bits comes back out of a tail record, prev at
// the repair floor (version 0, so only the had bit tells a held zero
// cell from none) and next at a large version, then replays a half-torn
// tail: torn applies roll back to what they overwrote (a tombstone and
// a floor cell included), untorn ones survive.
func TestUndoRecPacksLosslessly(t *testing.T) {
	for bits := 0; bits < 16; bits++ {
		had, torn := bits&1 != 0, bits&2 != 0
		prevTomb, nextTomb := bits&4 != 0, bits&8 != 0
		u := newUndoRec(99, newCell(0, prevTomb), had, newCell(1<<40, nextTomb))
		if torn {
			u.tear()
		}
		prev, next := u.prevCell(), u.nextCell()
		if u.key != 99 || u.had() != had || u.torn() != torn ||
			prev.ver() != 0 || prev.tomb() != prevTomb || next.ver() != 1<<40 || next.tomb() != nextTomb {
			t.Errorf("bits %04b: unpacked key %d had %v torn %v prev %d/%v next %d/%v",
				bits, u.key, u.had(), u.torn(), prev.ver(), prev.tomb(), next.ver(), next.tomb())
		}
	}

	c := newTestCluster(t, 1, 1, nil)
	r := c.reps[0]
	r.apply(1, newCell(1, true))
	r.apply(2, newCell(2, false))
	r.apply(4, newCell(0, false))
	r.restart() // all three durable
	r.apply(2, newCell(3, true))
	r.apply(3, newCell(4, false))
	r.apply(1, newCell(5, false))
	r.apply(4, newCell(6, true))
	r.corruptTail(0.5) // tears the two newest of four
	if r.torn != 2 {
		t.Fatalf("%d records torn, want 2", r.torn)
	}
	r.restart()
	want := map[uint64]cell{1: newCell(1, true), 2: newCell(3, true), 3: newCell(4, false), 4: newCell(0, false)}
	if !maps.Equal(r.cur, want) {
		t.Errorf("after the torn restart the replica holds %v, want %v", r.cur, want)
	}
}
