package nosql

import (
	"testing"
	"unsafe"

	"rafiki/internal/config"
)

// newBareEngine builds an engine for direct strategy-level tests.
func newBareEngine(t *testing.T, cfg config.Config) *Engine {
	t.Helper()
	eng, err := New(Options{Space: config.Cassandra(), Config: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func addTable(e *Engine, nKeys int, level int) *ssTable {
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	t := newSSTable(e.newTableID(), keys, e.hw.RowBytes, e.hw.KeysPerBlock(), e.hw.ScaledKeySpace())
	t.level = level
	e.tables.Add(t)
	return t
}

func TestSizeTieredBucketing(t *testing.T) {
	eng := newBareEngine(t, nil)
	strategy := &sizeTieredStrategy{minThreshold: 4, maxThreshold: 32}

	// Three similar tables: below threshold, no task.
	for i := 0; i < 3; i++ {
		addTable(eng, 1000, 0)
	}
	if tasks := strategy.Plan(eng); len(tasks) != 0 {
		t.Fatalf("3 similar tables should not trigger, got %d tasks", len(tasks))
	}
	// A fourth similar table triggers exactly one merge of the bucket.
	addTable(eng, 1100, 0)
	tasks := strategy.Plan(eng)
	if len(tasks) != 1 {
		t.Fatalf("4 similar tables should trigger one task, got %d", len(tasks))
	}
	if got := len(tasks[0].inputs); got != 4 {
		t.Errorf("task merges %d tables, want 4", got)
	}
	// Claimed tables must not be re-planned.
	if tasks = strategy.Plan(eng); len(tasks) != 0 {
		t.Errorf("compacting tables were re-claimed: %d tasks", len(tasks))
	}
}

func TestSizeTieredIgnoresDissimilarSizes(t *testing.T) {
	eng := newBareEngine(t, nil)
	strategy := &sizeTieredStrategy{minThreshold: 4, maxThreshold: 32}
	// Four tables with geometric sizes land in different buckets.
	for _, n := range []int{100, 1000, 10_000, 40_000} {
		addTable(eng, n, 0)
	}
	if tasks := strategy.Plan(eng); len(tasks) != 0 {
		t.Errorf("dissimilar sizes should not merge, got %d tasks", len(tasks))
	}
}

func TestSizeTieredMaxThreshold(t *testing.T) {
	eng := newBareEngine(t, nil)
	strategy := &sizeTieredStrategy{minThreshold: 4, maxThreshold: 6}
	for i := 0; i < 10; i++ {
		addTable(eng, 1000, 0)
	}
	tasks := strategy.Plan(eng)
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if got := len(tasks[0].inputs); got != 6 {
		t.Errorf("task merges %d tables, want maxThreshold 6", got)
	}
}

func TestLeveledPlanL0IntoL1(t *testing.T) {
	eng := newBareEngine(t, nil)
	strategy := &leveledStrategy{levelBaseBytes: 4 << 20, fanout: 10}
	addTable(eng, 1000, 0)
	addTable(eng, 1000, 0)
	run := addTable(eng, 3000, 1)

	tasks := strategy.Plan(eng)
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d, want 1 (L0 -> L1)", len(tasks))
	}
	if tasks[0].outputLevel != 1 {
		t.Errorf("output level = %d, want 1", tasks[0].outputLevel)
	}
	if got := len(tasks[0].inputs); got != 3 {
		t.Errorf("inputs = %d, want 2 L0 tables + the L1 run", got)
	}
	found := false
	for _, in := range tasks[0].inputs {
		if in == run {
			found = true
		}
	}
	if !found {
		t.Error("the existing L1 run must join the merge")
	}
}

func TestLeveledSpillsOversizedLevel(t *testing.T) {
	eng := newBareEngine(t, nil)
	strategy := &leveledStrategy{levelBaseBytes: 1 << 20, fanout: 10}
	// An L1 run far beyond its 1 MiB target must spill into L2.
	addTable(eng, 5000, 1) // ~5 MB
	tasks := strategy.Plan(eng)
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d, want 1 spill", len(tasks))
	}
	if tasks[0].outputLevel != 2 {
		t.Errorf("spill output level = %d, want 2", tasks[0].outputLevel)
	}
}

func TestLeveledTargets(t *testing.T) {
	s := &leveledStrategy{levelBaseBytes: 10, fanout: 10}
	for _, tt := range []struct {
		level int
		want  float64
	}{{1, 10}, {2, 100}, {3, 1000}} {
		if got := s.target(tt.level); got != tt.want {
			t.Errorf("target(%d) = %v, want %v", tt.level, got, tt.want)
		}
	}
}

func TestNewStrategyUnknown(t *testing.T) {
	eng := newBareEngine(t, nil)
	if _, err := newStrategy(9, eng); err == nil {
		t.Error("unknown strategy should error")
	}
}

// TestLogRecordLayout pins a commit-log record at its key and expiry:
// the tombstone flag lives in the expiry's sign.
func TestLogRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(logRecord{}); got != 16 {
		t.Errorf("logRecord is %d bytes, want 16", got)
	}
}

func TestCommitLog(t *testing.T) {
	l := newCommitLog(1000, 100)
	l.Append(1, false, 0, 0)
	l.Append(2, true, 0, 0)
	if got := l.Bytes(); got != 100+100.0/8 {
		t.Errorf("Bytes = %v", got)
	}
	recs := l.Replay()
	if len(recs) != 2 || recs[0].key != 1 || recs[0].tombstone() || !recs[1].tombstone() {
		t.Errorf("Replay = %+v", recs)
	}
	l.MarkFlushed()
	if l.Bytes() != 0 || len(l.Replay()) != 0 {
		t.Error("MarkFlushed did not truncate")
	}
	// Segment rollovers count.
	l2 := newCommitLog(250, 100)
	for i := 0; i < 10; i++ {
		l2.Append(uint64(i), false, 0, 0)
	}
	if l2.segmentsRolled == 0 {
		t.Error("no segment rollovers recorded")
	}
	// Degenerate segment size falls back to a positive value.
	l3 := newCommitLog(0, 100)
	l3.Append(1, false, 0, 0)
	if l3.Bytes() != 100 {
		t.Error("zero segment size mishandled")
	}
	l3.Resize(500)
	l3.Resize(-1) // ignored

	// A plain write, a TTL'd write and a tombstone replay into the
	// memtable they were written to.
	eng := newBareEngine(t, nil)
	eng.Write(1)
	eng.WriteTTL(2, 50)
	eng.Delete(3)
	recs = eng.log.Replay()
	if len(recs) != 3 || recs[0].expiry != 0 || recs[1].expiry <= 0 || recs[1].tombstone() || !recs[2].tombstone() {
		t.Fatalf("engine Replay = %+v", recs)
	}
	var before [3]memCell
	for i := range before {
		before[i], _ = eng.mem.Cell(uint64(i + 1))
	}
	eng.Restart()
	for i, want := range before {
		if got, ok := eng.mem.Cell(uint64(i + 1)); !ok || got != want {
			t.Errorf("key %d after restart: %+v (held %v), want %+v", i+1, got, ok, want)
		}
	}
	if !before[2].tomb || before[1].expiry != recs[1].expiry {
		t.Errorf("memtable before restart: %+v", before)
	}
}
