package cluster

import (
	"testing"

	"rafiki/internal/workload"
)

// Satellite coverage: range scans as a coordinator op (scatter through
// the netsim transport, consistency-level accounting) and deletes
// flowing end-to-end from the workload driver through the coordinator
// at QUORUM, with read repair converging a wiped replica's tombstone.

func TestClusterScanSkipsTombstones(t *testing.T) {
	c := newTestCluster(t, 3, 3, nil)
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	ks := uint64(c.KeySpace())
	// Tombstone the top three keys; a scan that runs into the end of
	// the key space must count only the live rows before them.
	for _, k := range []uint64{ks - 3, ks - 2, ks - 1} {
		if res := c.DeleteOp(k); !res.OK {
			t.Fatalf("delete %d not acked at QUORUM", k)
		}
	}
	res := c.ScanOp(ks-5, 10)
	if !res.OK || res.Served < 2 {
		t.Fatalf("QUORUM scan: ok=%v served=%d", res.OK, res.Served)
	}
	if res.Rows != 2 {
		t.Errorf("scan over the deleted tail found %d live rows, want 2", res.Rows)
	}
	// The scatter traveled as messages: every served replica charged
	// engine scan work.
	if m := c.Metrics(); m.Scans < uint64(res.Served) {
		t.Errorf("engine scan ops = %d, want >= %d served replicas", m.Scans, res.Served)
	}
	// An interior scan is bounded by limit alone.
	if res := c.ScanOp(0, 8); res.Rows != 8 {
		t.Errorf("interior scan rows = %d, want 8", res.Rows)
	}
}

func TestQuorumScanUnavailableWithTwoFailuresRF3(t *testing.T) {
	c := newTestCluster(t, 3, 3, nil)
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	res := c.ScanOp(0, 16)
	if res.OK || res.Rows != 0 {
		t.Errorf("QUORUM scan with 1 of 3 live: ok=%v rows=%d", res.OK, res.Rows)
	}
	if got := c.Stats().UnavailableScans; got != 1 {
		t.Errorf("unavailable scans = %d, want 1", got)
	}
	// ONE restores availability mid-outage.
	if err := c.SetReadConsistency(ConsistencyOne); err != nil {
		t.Fatal(err)
	}
	if res := c.ScanOp(0, 16); !res.OK {
		t.Error("ONE scan should succeed with a single live replica")
	}
}

func TestQuorumDeleteReadRepairsWipedReplica(t *testing.T) {
	c := newTestCluster(t, 3, 3, nil)
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	const key = uint64(42)
	if res := c.WriteOp(key); !res.OK {
		t.Fatal("write not acked at QUORUM")
	}
	del := c.DeleteOp(key)
	if !del.OK {
		t.Fatal("delete not acked at QUORUM")
	}

	// Wipe node 0: its whole undo tail tears, so both the write and the
	// tombstone roll back on restart and the node rejoins stale.
	if _, err := c.CorruptNodeLog(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if _, has := c.reps[0].cur[key]; has {
		t.Fatal("node 0 kept versioned state through a fully torn restart")
	}

	// Every QUORUM read must report the tombstone version regardless of
	// which two replicas answer, and the rotation eventually consults
	// the stale node, repairing it on the read path.
	for i := 0; i < 8; i++ {
		res := c.ReadOp(key)
		if !res.OK {
			t.Fatal("QUORUM read unavailable with all nodes live")
		}
		if res.Version != del.Version || !res.Deleted {
			t.Fatalf("read saw version %d deleted=%v, want tombstone %d", res.Version, res.Deleted, del.Version)
		}
	}
	if c.Stats().ReadRepairs == 0 {
		t.Error("stale replica never read-repaired")
	}
	if cl, has := c.reps[0].cur[key]; !has || !cl.tomb() || cl.ver() != del.Version {
		t.Errorf("node 0 state after repair = %+v (has=%v), want tombstone version %d", cl, has, del.Version)
	}
}

// TestWorkloadMixDrivesCluster closes the Deleter/Scanner loop end to
// end: a mixed CRUD+scan workload routed through workload.Run must
// reach the cluster coordinator's delete and scan paths — not the
// read/write fallbacks — and from there the replica engines.
func TestWorkloadMixDrivesCluster(t *testing.T) {
	c := newTestCluster(t, 3, 2, nil)
	c.Preload(1)
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(c, workload.Spec{
		Mix:     workload.Mix{Read: 0.4, Update: 0.3, Delete: 0.15, Scan: 0.15},
		KRDMean: 200,
		Ops:     4000,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deletes == 0 || res.Scans == 0 {
		t.Fatalf("mixed run: deletes=%d scans=%d, want both > 0", res.Deletes, res.Scans)
	}
	if res.ScanRows == 0 {
		t.Error("scans returned no rows from a preloaded cluster")
	}
	// The ops reached the engines through the message layer: replica
	// engine counters saw tombstone writes and scans.
	m := c.Metrics()
	if m.Deletes == 0 {
		t.Error("no engine-level deletes: workload deletes fell back to writes")
	}
	if m.Scans == 0 {
		t.Error("no engine-level scans: workload scans fell back to reads")
	}
	st := c.Stats()
	if st.UnavailableScans != 0 || st.UnavailableReads != 0 {
		t.Errorf("healthy cluster reported unavailability: %+v", st)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput")
	}
}
