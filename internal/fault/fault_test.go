package fault

import (
	"testing"

	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/nosql"
	"rafiki/internal/workload"
)

func newCluster(t *testing.T, nodes, rf int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		Nodes:             nodes,
		ReplicationFactor: rf,
		Space:             config.Cassandra(),
		Seed:              7,
		// Short epochs make node clocks advance often enough for the
		// injector to observe scheduled times mid-run.
		EpochOps: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{{Kind: Fail, Node: 3, At: 0, Until: 1}},      // node out of range
		{{Kind: Fail, Node: 0, At: 2, Until: 1}},      // empty window
		{{Kind: Slow, Node: 0, At: 0, Until: 1}},      // no tax
		{{Kind: Transient, Node: 0, At: 0, Until: 1}}, // no probability
		{{Kind: Transient, Node: 0, At: 0, Until: 1, FailProb: 1.5}},
		{{Kind: CorruptLog, Node: 0, At: 0}},      // no fraction
		{{Kind: Fail, Node: 0, At: -1, Until: 1}}, // negative time
		{ // overlapping fail windows on one node
			{Kind: Fail, Node: 1, At: 0, Until: 5},
			{Kind: Fail, Node: 1, At: 3, Until: 8},
		},
	}
	for i, s := range bad {
		if err := s.Validate(3); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
	good := Schedule{
		{Kind: Fail, Node: 0, At: 1, Until: 2},
		{Kind: Fail, Node: 0, At: 2, Until: 3}, // back-to-back is fine
		{Kind: Slow, Node: 1, At: 0, Until: 4, DiskTax: 8, CPUTax: 2},
		{Kind: Transient, Node: 2, At: 1, Until: 3, FailProb: 0.1},
		{Kind: Restart, Node: 2, At: 5, CorruptFraction: 0.5},
	}
	if err := good.Validate(3); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestFailWindowFiresAtVirtualTime(t *testing.T) {
	c := newCluster(t, 2, 2)
	c.Preload(1)
	healthyClock := func() float64 {
		// One write's worth of virtual time, measured on a scratch node.
		s := newCluster(t, 1, 1)
		s.Write(0)
		s.FinishEpoch()
		return s.Clock()
	}()
	if healthyClock <= 0 {
		t.Fatal("expected positive per-op cost")
	}
	// Fail node 1 after ~100 ops, recover after ~200.
	sched := Schedule{
		{Kind: Fail, Node: 1, At: 100 * healthyClock, Until: 200 * healthyClock},
	}
	inj, err := NewInjector(c, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(c, inj)
	for k := uint64(0); k < 400; k++ {
		h.Write(k % uint64(h.KeySpace()))
	}
	h.FinishEpoch()
	inj.Finish()
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.HintsStored == 0 {
		t.Error("writes during the outage should be hinted")
	}
	if st.HintsStored >= 400 {
		t.Errorf("outage should cover only part of the run: %d hints", st.HintsStored)
	}
	if st.HintsReplayed != st.HintsStored {
		t.Errorf("recovery should replay all hints: %d of %d", st.HintsReplayed, st.HintsStored)
	}
	if !inj.Done() {
		t.Error("all transitions should have fired")
	}
}

func TestSlowWindowAppliesAndHealsDegradation(t *testing.T) {
	c := newCluster(t, 2, 2)
	sched := Schedule{
		{Kind: Slow, Node: 0, At: 0, Until: 0.5, DiskTax: 4, CPUTax: 2},
	}
	inj, err := NewInjector(c, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Advance(0)
	if d, cp := c.Engine(0).Degradation(); d != 4 || cp != 2 {
		t.Errorf("degradation = (%v, %v), want (4, 2)", d, cp)
	}
	inj.Advance(1)
	if d, cp := c.Engine(0).Degradation(); d != 1 || cp != 1 {
		t.Errorf("degradation after heal = (%v, %v), want (1, 1)", d, cp)
	}
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingSlowWindowsTakeMaxTax(t *testing.T) {
	c := newCluster(t, 1, 1)
	sched := Schedule{
		{Kind: Slow, Node: 0, At: 0, Until: 10, DiskTax: 2, CPUTax: 1},
		{Kind: Slow, Node: 0, At: 1, Until: 5, DiskTax: 8, CPUTax: 3},
	}
	inj, err := NewInjector(c, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Advance(2)
	if d, cp := c.Engine(0).Degradation(); d != 8 || cp != 3 {
		t.Errorf("overlap degradation = (%v, %v), want (8, 3)", d, cp)
	}
	inj.Advance(6) // inner window ended
	if d, cp := c.Engine(0).Degradation(); d != 2 || cp != 1 {
		t.Errorf("outer-only degradation = (%v, %v), want (2, 1)", d, cp)
	}
	inj.Advance(11)
	if d, cp := c.Engine(0).Degradation(); d != 1 || cp != 1 {
		t.Errorf("healed degradation = (%v, %v), want (1, 1)", d, cp)
	}
}

func TestTransientWindowFailsAttemptsProbabilistically(t *testing.T) {
	c := newCluster(t, 2, 2)
	sched := Schedule{
		{Kind: Transient, Node: 1, At: 0, Until: 1e9, FailProb: 0.5},
	}
	inj, err := NewInjector(c, sched, 42)
	if err != nil {
		t.Fatal(err)
	}
	inj.Advance(0)
	fails := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if inj.AttemptFails(1, 0) {
			fails++
		}
	}
	if fails < draws/3 || fails > 2*draws/3 {
		t.Errorf("fail rate %d/%d far from 0.5", fails, draws)
	}
	if inj.AttemptFails(0, 0) {
		t.Error("untargeted node should never fail")
	}
}

func TestRestartWithCorruptionLosesTailRecords(t *testing.T) {
	eng, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		eng.Write(k)
	}
	sched := Schedule{
		{Kind: Restart, Node: 0, At: 0, CorruptFraction: 0.5},
	}
	inj, err := NewInjector(EngineTarget{Engine: eng}, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Finish()
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	if inj.LostRecords() == 0 {
		t.Error("corrupting half the log tail should lose records")
	}
	m := eng.Metrics()
	if m.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", m.Restarts)
	}
	if m.CorruptedLogRecords == 0 {
		t.Error("corruption should be counted")
	}
	if int(m.ReplayedRecords)+inj.LostRecords() == 0 {
		t.Error("replay accounting missing")
	}
}

func TestEngineTargetRejectsFailStop(t *testing.T) {
	eng, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{{Kind: Fail, Node: 0, At: 0, Until: 1}}
	inj, err := NewInjector(EngineTarget{Engine: eng}, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Finish()
	if inj.Err() == nil {
		t.Error("fail-stop on a single engine should surface an error")
	}
}

// TestDeterminismAcrossRuns is the tentpole invariant: the same
// schedule, seed, and workload must produce bit-identical cluster
// stats, metrics, and clocks across independent runs.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (cluster.Stats, float64, uint64, uint64) {
		c := newCluster(t, 3, 3)
		c.Preload(1)
		if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
			t.Fatal(err)
		}
		if err := c.SetResilience(cluster.DefaultResilienceOptions()); err != nil {
			t.Fatal(err)
		}
		sched := Schedule{
			{Kind: Transient, Node: 0, At: 0, Until: 1e9, FailProb: 0.2},
			{Kind: Slow, Node: 1, At: 0.001, Until: 1e9, DiskTax: 6, CPUTax: 2},
		}
		inj, err := NewInjector(c, sched, 99)
		if err != nil {
			t.Fatal(err)
		}
		c.SetFaultInjector(inj)
		h := NewHarness(c, inj)
		for k := uint64(0); k < 2000; k++ {
			if k%3 == 0 {
				h.Read(k % uint64(h.KeySpace()))
			} else {
				h.Write(k % uint64(h.KeySpace()))
			}
		}
		h.FinishEpoch()
		if err := inj.Err(); err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		return c.Stats(), c.Clock(), m.Reads, m.Writes
	}
	s1, clock1, r1, w1 := run()
	s2, clock2, r2, w2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across runs:\n%+v\n%+v", s1, s2)
	}
	if clock1 != clock2 {
		t.Errorf("clocks differ across runs: %v vs %v", clock1, clock2)
	}
	if r1 != r2 || w1 != w2 {
		t.Errorf("op counts differ across runs: reads %d/%d writes %d/%d", r1, r2, w1, w2)
	}
	if s1.TransientFailures == 0 {
		t.Error("schedule should have injected transient failures")
	}
}

func TestHarnessDeleteFallsBackToWrite(t *testing.T) {
	c := newCluster(t, 1, 1)
	inj, err := NewInjector(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(c, inj)
	h.Delete(5) // cluster supports Delete directly
	if c.Engine(0).Alive(5) {
		t.Error("delete should tombstone the key")
	}
}

// TestHarnessForwardsScans: a scan-bearing mix driven through the
// harness reaches the cluster as range scans, not as the point reads
// workload.Run falls back to for a store without Scan.
func TestHarnessForwardsScans(t *testing.T) {
	c := newCluster(t, 3, 3)
	inj, err := NewInjector(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(NewHarness(c, inj), workload.Spec{
		Mix:  workload.Mix{Read: 0.5, Update: 0.3, Scan: 0.2},
		Ops:  2_000,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Scans == 0 || uint64(res.Scans) != st.Scans {
		t.Errorf("driver issued %d scans, the cluster served %d", res.Scans, st.Scans)
	}
	if res.ScanRows == 0 {
		t.Error("scans through the harness returned no rows")
	}
}
