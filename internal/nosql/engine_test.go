package nosql_test

import (
	"math"
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/nosql"
	"rafiki/internal/workload"
)

func newTestEngine(t *testing.T, cfg config.Config, seed int64) *nosql.Engine {
	t.Helper()
	eng, err := nosql.New(nosql.Options{Space: config.Cassandra(), Config: cfg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func runSpec(t *testing.T, eng *nosql.Engine, rr float64, ops int, seed int64) workload.Result {
	t.Helper()
	res, err := workload.Run(eng, workload.Spec{
		ReadRatio: rr,
		KRDMean:   float64(eng.KeySpace()) / 2,
		Ops:       ops,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := nosql.New(nosql.Options{}); err == nil {
		t.Error("missing space should error")
	}
	bad := nosql.DefaultHardware()
	bad.Cores = 0
	if _, err := nosql.New(nosql.Options{Space: config.Cassandra(), Hardware: bad}); err == nil {
		t.Error("invalid hardware should error")
	}
	if _, err := nosql.New(nosql.Options{
		Space:  config.Cassandra(),
		Config: config.Config{"bogus": 1},
	}); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := nosql.New(nosql.Options{
		Space:  config.Cassandra(),
		Config: config.Config{config.ParamConcurrentWrites: 9999},
	}); err == nil {
		t.Error("out-of-bounds config should error")
	}
}

func TestHardwareValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*nosql.Hardware)
	}{
		{"zero cores", func(h *nosql.Hardware) { h.Cores = 0 }},
		{"zero bandwidth", func(h *nosql.Hardware) { h.DiskBandwidthMBps = 0 }},
		{"negative seek", func(h *nosql.Hardware) { h.SeekMicros = -1 }},
		{"zero row bytes", func(h *nosql.Hardware) { h.RowBytes = 0 }},
		{"block smaller than row", func(h *nosql.Hardware) { h.BlockBytes = 10 }},
		{"zero key space", func(h *nosql.Hardware) { h.KeySpace = 0 }},
		{"zero scale", func(h *nosql.Hardware) { h.Scale = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := nosql.DefaultHardware()
			tt.mutate(&h)
			if err := h.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	good := nosql.DefaultHardware()
	if err := good.Validate(); err != nil {
		t.Errorf("default hardware invalid: %v", err)
	}
}

func TestHardwareDerived(t *testing.T) {
	h := nosql.DefaultHardware()
	if got := h.KeysPerBlock(); got != h.BlockBytes/h.RowBytes {
		t.Errorf("KeysPerBlock = %d", got)
	}
	if got := h.ScaledKeySpace(); got != h.KeySpace/h.Scale {
		t.Errorf("ScaledKeySpace = %d", got)
	}
	if got := h.ScaledBytes(64); math.Abs(got-64*1024*1024/float64(h.Scale)) > 1 {
		t.Errorf("ScaledBytes = %v", got)
	}
	tiny := h
	tiny.KeySpace = 1
	if tiny.ScaledKeySpace() != 1 {
		t.Error("ScaledKeySpace should floor at 1")
	}
}

func TestEngineDeterminism(t *testing.T) {
	var outs []float64
	for i := 0; i < 2; i++ {
		eng := newTestEngine(t, nil, 1234)
		eng.Preload(3)
		res := runSpec(t, eng, 0.5, 30_000, 77)
		outs = append(outs, res.Throughput)
	}
	if outs[0] != outs[1] {
		t.Errorf("same seed produced different throughput: %v vs %v", outs[0], outs[1])
	}
	eng := newTestEngine(t, nil, 4321)
	eng.Preload(3)
	other := runSpec(t, eng, 0.5, 30_000, 77)
	if other.Throughput == outs[0] {
		t.Error("different seed should perturb the result")
	}
}

func TestEngineWritesTriggerFlushesAndCompactions(t *testing.T) {
	eng := newTestEngine(t, nil, 5)
	for i := 0; i < 200_000; i++ {
		eng.Write(uint64(i % eng.KeySpace()))
	}
	eng.FinishEpoch()
	m := eng.Metrics()
	if m.Flushes == 0 {
		t.Error("sustained writes should flush")
	}
	if m.SSTables == 0 {
		t.Error("flushes should create SSTables")
	}
	if m.CompactionBacklogBytes == 0 && m.Compactions == 0 {
		t.Error("sustained writes should at least enqueue compaction work")
	}
	if m.VirtualSeconds <= 0 {
		t.Error("virtual time should advance")
	}
	if m.Writes != 200_000 {
		t.Errorf("Writes = %d", m.Writes)
	}
}

func TestEngineReadsAfterPreload(t *testing.T) {
	eng := newTestEngine(t, nil, 6)
	eng.Preload(3)
	runSpec(t, eng, 1.0, 50_000, 61)
	m := eng.Metrics()
	if m.Reads != 50_000 {
		t.Errorf("Reads = %d", m.Reads)
	}
	if m.BloomChecks == 0 {
		t.Error("reads should consult bloom filters")
	}
	if m.DiskBlockReads == 0 {
		t.Error("cold reads should hit disk")
	}
	if amp := m.ReadAmplification(); amp < 0.3 || amp > 5 {
		t.Errorf("read amplification %v outside sane band", amp)
	}
}

func TestMemtableCleanupControlsFlushFrequency(t *testing.T) {
	flushes := func(mt float64) uint64 {
		eng := newTestEngine(t, config.Config{config.ParamMemtableCleanup: mt}, 7)
		for i := 0; i < 100_000; i++ {
			eng.Write(uint64(i % eng.KeySpace()))
		}
		eng.FinishEpoch()
		return eng.Metrics().Flushes
	}
	small := flushes(0.05)
	large := flushes(0.5)
	if small <= large {
		t.Errorf("small threshold should flush more often: %d vs %d", small, large)
	}
}

func TestCommitlogSpaceForcesFlush(t *testing.T) {
	eng := newTestEngine(t, config.Config{
		config.ParamMemtableCleanup:     0.6,
		config.ParamCommitlogTotalSpace: 1024,
	}, 8)
	for i := 0; i < 150_000; i++ {
		eng.Write(uint64(i % eng.KeySpace()))
	}
	eng.FinishEpoch()
	if eng.Metrics().ForcedFlushes == 0 {
		t.Error("tiny commit log should force flushes")
	}
}

func TestLeveledBoundsReadAmplification(t *testing.T) {
	// Section 2.2.2: leveled compaction bounds how many tables a read
	// must consult; size-tiered lets versions spread across tables.
	run := func(strategy float64) float64 {
		eng := newTestEngine(t, config.Config{
			config.ParamCompactionStrategy:   strategy,
			config.ParamCompactionThroughput: 256,
			config.ParamConcurrentCompactors: 8,
		}, 9)
		eng.Preload(3)
		runSpec(t, eng, 0.5, 150_000, 11)
		return eng.Metrics().ReadAmplification()
	}
	st := run(config.CompactionSizeTiered)
	lcs := run(config.CompactionLeveled)
	if lcs >= st {
		t.Errorf("leveled read amplification %v should be below size-tiered %v", lcs, st)
	}
}

func TestCompactionCompletesWhenUnthrottled(t *testing.T) {
	model := nosql.DefaultCostModel()
	model.CompactorRateMBps = 40 // fast compactors so merges finish in-run
	eng, err := nosql.New(nosql.Options{
		Space: config.Cassandra(),
		Config: config.Config{
			config.ParamCompactionThroughput: 256,
			config.ParamConcurrentCompactors: 8,
		},
		Model: model,
		Seed:  91,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		eng.Write(uint64(i) % uint64(eng.KeySpace()))
	}
	eng.FinishEpoch()
	if eng.Metrics().Compactions == 0 {
		t.Error("unthrottled compaction should complete merges")
	}
}

func TestFileCacheSizeImprovesReadHeavy(t *testing.T) {
	run := func(fcz float64) float64 {
		eng := newTestEngine(t, config.Config{config.ParamFileCacheSize: fcz}, 10)
		eng.Preload(3)
		return runSpec(t, eng, 0.9, 80_000, 12).Throughput
	}
	small := run(32)
	med := run(1024)
	if med <= small {
		t.Errorf("bigger file cache should help read-heavy: %v vs %v", med, small)
	}
}

func TestRowCacheServesRepeatedReads(t *testing.T) {
	eng := newTestEngine(t, config.Config{config.ParamRowCacheSize: 1024}, 13)
	eng.Preload(1)
	for i := 0; i < 20_000; i++ {
		eng.Read(uint64(i % 100)) // tiny hot set
	}
	eng.FinishEpoch()
	m := eng.Metrics()
	if m.RowCacheHits == 0 {
		t.Error("hot repeated reads should hit the row cache")
	}
}

func TestApplyReconfiguresAtRuntime(t *testing.T) {
	eng := newTestEngine(t, nil, 14)
	eng.Preload(3)
	before := eng.Clock()
	if err := eng.Apply(config.Config{config.ParamCompactionStrategy: config.CompactionLeveled}); err != nil {
		t.Fatal(err)
	}
	if eng.Clock() <= before {
		t.Error("Apply should charge reconfiguration downtime")
	}
	if got := eng.Params()[config.ParamCompactionStrategy]; got != config.CompactionLeveled {
		t.Errorf("strategy after Apply = %v", got)
	}
	if err := eng.Apply(config.Config{"bogus": 1}); err == nil {
		t.Error("Apply with bad config should error")
	}
}

func TestWorkloadSensitivityDefaultConfig(t *testing.T) {
	// Section 4.4: default-config throughput decreases as the read
	// proportion rises; the swing exceeds 30%.
	tput := func(rr float64) float64 {
		eng := newTestEngine(t, nil, 15)
		eng.Preload(3)
		return runSpec(t, eng, rr, 100_000, 16).Throughput
	}
	writeHeavy := tput(0.0)
	readHeavy := tput(1.0)
	if readHeavy >= writeHeavy {
		t.Fatalf("default config should favour writes: RR0=%v RR100=%v", writeHeavy, readHeavy)
	}
	swing := (writeHeavy - readHeavy) / writeHeavy
	if swing < 0.3 {
		t.Errorf("write-to-read swing = %.1f%%, want > 30%%", swing*100)
	}
}

func TestCompactionStrategyWorkloadCrossover(t *testing.T) {
	// Section 2.2.2: leveled wins read-heavy, size-tiered wins
	// write-heavy — the paper's central interdependence.
	tput := func(strategy, rr float64) float64 {
		eng := newTestEngine(t, config.Config{config.ParamCompactionStrategy: strategy}, 17)
		eng.Preload(3)
		return runSpec(t, eng, rr, 100_000, 18).Throughput
	}
	stWrite := tput(config.CompactionSizeTiered, 0.05)
	lcsWrite := tput(config.CompactionLeveled, 0.05)
	stRead := tput(config.CompactionSizeTiered, 0.95)
	lcsRead := tput(config.CompactionLeveled, 0.95)
	if lcsRead <= stRead {
		t.Errorf("leveled should win read-heavy: %v vs %v", lcsRead, stRead)
	}
	if stWrite <= lcsWrite {
		t.Errorf("size-tiered should win write-heavy: %v vs %v", stWrite, lcsWrite)
	}
}

func TestEpochThroughputSeries(t *testing.T) {
	eng := newTestEngine(t, nil, 19)
	eng.Preload(2)
	runSpec(t, eng, 0.7, 50_000, 20)
	m := eng.Metrics()
	if len(m.EpochThroughputs) < 10 {
		t.Fatalf("expected many epochs, got %d", len(m.EpochThroughputs))
	}
	for i, v := range m.EpochThroughputs {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("epoch %d throughput %v invalid", i, v)
		}
	}
}

func TestMetricsSnapshotStableView(t *testing.T) {
	// A Metrics snapshot is the caller's: later traffic extends the
	// engine's series, never the elements of a snapshot already taken.
	eng := newTestEngine(t, nil, 21)
	eng.Preload(1)
	runSpec(t, eng, 0.5, 20_000, 22)
	m1 := eng.Metrics()
	if len(m1.EpochThroughputs) == 0 {
		t.Fatal("no epochs")
	}
	before := append([]float64(nil), m1.EpochThroughputs...)
	runSpec(t, eng, 0.5, 20_000, 23)
	m2 := eng.Metrics()
	if len(m2.EpochThroughputs) <= len(before) {
		t.Fatalf("second run appended no epochs: %d <= %d", len(m2.EpochThroughputs), len(before))
	}
	for i, v := range before {
		if m1.EpochThroughputs[i] != v {
			t.Fatalf("epoch %d in earlier snapshot rewritten: %v -> %v", i, v, m1.EpochThroughputs[i])
		}
	}
}

func TestScyllaEngineAutotunerOverrides(t *testing.T) {
	s, err := nosql.NewScylla(nosql.ScyllaOptions{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Even if the user insists on a tiny file cache, the auto-tuner
	// keeps its own choice; throughput must match the auto value.
	if err := s.Apply(config.Config{config.ParamFileCacheSize: 32}); err != nil {
		t.Fatal(err)
	}
	if s.Space().Name != "scylladb" {
		t.Errorf("space = %q", s.Space().Name)
	}
	s.Preload(3)
	res, err := workload.Run(s, workload.Spec{ReadRatio: 0.7, KRDMean: float64(s.KeySpace()) / 2, Ops: 60_000, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

// TestScyllaEngineServesEveryOpClass: the driver's optional capabilities
// (deletes, scans, TTL'd writes) reach the engine under a ScyllaEngine
// instead of falling back to plain writes and reads.
func TestScyllaEngineServesEveryOpClass(t *testing.T) {
	s, err := nosql.NewScylla(nosql.ScyllaOptions{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	s.Preload(3)
	res, err := workload.Run(s, workload.Spec{
		Mix:         workload.Mix{Read: 0.4, Update: 0.3, Delete: 0.15, Scan: 0.15},
		TTLFraction: 0.5, TTLSeconds: 1e-3,
		KRDMean: float64(s.KeySpace()) / 2, Ops: 60_000, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Deletes != uint64(res.Deletes) || m.Scans != uint64(res.Scans) || res.Deletes == 0 || res.Scans == 0 {
		t.Errorf("engine served %d deletes and %d scans, the driver issued %d and %d", m.Deletes, m.Scans, res.Deletes, res.Scans)
	}
	if m.ExpiredCells == 0 {
		t.Error("no TTL'd write expired: WriteTTL did not reach the engine")
	}
}

func TestScyllaThroughputVariance(t *testing.T) {
	// Figure 10: ScyllaDB's epoch throughput fluctuates much more than
	// Cassandra's under an identical stationary workload.
	cv := func(series []float64) float64 {
		var mean float64
		for _, v := range series {
			mean += v
		}
		mean /= float64(len(series))
		var ss float64
		for _, v := range series {
			d := v - mean
			ss += d * d
		}
		return math.Sqrt(ss/float64(len(series))) / mean
	}

	ceng := newTestEngine(t, nil, 25)
	ceng.Preload(3)
	runSpec(t, ceng, 0.7, 120_000, 26)
	cassandraCV := cv(ceng.Metrics().EpochThroughputs)

	seng, err := nosql.NewScylla(nosql.ScyllaOptions{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	seng.Preload(3)
	if _, err := workload.Run(seng, workload.Spec{ReadRatio: 0.7, KRDMean: float64(seng.KeySpace()) / 2, Ops: 120_000, Seed: 26}); err != nil {
		t.Fatal(err)
	}
	scyllaCV := cv(seng.Metrics().EpochThroughputs)

	if scyllaCV <= cassandraCV {
		t.Errorf("ScyllaDB variance (cv=%v) should exceed Cassandra's (cv=%v)", scyllaCV, cassandraCV)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, tt := range []struct {
		strategy float64
		want     string
	}{
		{config.CompactionSizeTiered, "SizeTiered"},
		{config.CompactionLeveled, "Leveled"},
	} {
		space := config.Cassandra()
		p := space.MustParam(config.ParamCompactionStrategy)
		if got := p.ValueName(tt.strategy); !strings.Contains(got, tt.want) {
			t.Errorf("strategy %v renders as %q, want %q", tt.strategy, got, tt.want)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	eng := newTestEngine(t, nil, 33)
	eng.Preload(2)
	runSpec(t, eng, 0.5, 50_000, 34)
	m := eng.Metrics()
	if len(m.EpochLatencies) == 0 {
		t.Fatal("no latency epochs")
	}
	p50 := m.LatencyPercentile(0.5)
	p99 := m.LatencyPercentile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("latency percentiles p50=%v p99=%v", p50, p99)
	}
	// Little's law: mean latency ~ clients/throughput.
	approx := 64 / m.Throughput()
	if p50 < approx/3 || p50 > approx*3 {
		t.Errorf("p50 %.6f out of band around %.6f", p50, approx)
	}
	if (nosql.Metrics{}).LatencyPercentile(0.5) != 0 {
		t.Error("empty metrics should report zero latency")
	}
}

func TestRestartRecoversUnflushedWrites(t *testing.T) {
	eng := newTestEngine(t, nil, 35)
	eng.Preload(1)
	// Write a small batch that stays in the memtable (below the flush
	// threshold), then crash.
	for k := uint64(0); k < 500; k++ {
		eng.Write(k)
	}
	eng.FinishEpoch()
	before := eng.Clock()
	eng.Restart()
	m := eng.Metrics()
	if m.Restarts != 1 {
		t.Fatalf("Restarts = %d", m.Restarts)
	}
	if m.ReplayedRecords != 500 {
		t.Errorf("ReplayedRecords = %d, want 500 (durability)", m.ReplayedRecords)
	}
	if eng.Clock() <= before {
		t.Error("restart should cost downtime")
	}
	// The replayed writes are readable (memtable is rebuilt) — read one
	// and confirm a memtable hit is possible.
	eng.Read(42)
	eng.FinishEpoch()
	if eng.Metrics().MemtableHits == 0 {
		t.Error("replayed key should hit the rebuilt memtable")
	}
}

func TestRestartAfterFlushReplaysNothing(t *testing.T) {
	eng := newTestEngine(t, nil, 36)
	// Enough writes to force at least one flush; the flushed prefix
	// must not be replayed.
	for i := 0; i < 30_000; i++ {
		eng.Write(uint64(i) % uint64(eng.KeySpace()))
	}
	eng.FinishEpoch()
	flushes := eng.Metrics().Flushes
	if flushes == 0 {
		t.Fatal("test needs at least one flush")
	}
	eng.Restart()
	m := eng.Metrics()
	if m.ReplayedRecords >= 30_000 {
		t.Errorf("replayed %d records; flushed data must not replay", m.ReplayedRecords)
	}
}

func TestRestartColdCaches(t *testing.T) {
	eng := newTestEngine(t, nil, 37)
	eng.Preload(2)
	runSpec(t, eng, 1.0, 30_000, 38)
	warm := eng.Metrics().FileCacheHitRate()
	if warm == 0 {
		t.Fatal("cache never warmed")
	}
	eng.Restart()
	before := eng.Metrics()
	runSpec(t, eng, 1.0, 10_000, 39)
	after := eng.Metrics()
	// Hit rate right after restart must dip: compute the post-restart
	// window's hit rate from the deltas.
	hits := after.FileCacheHits - before.FileCacheHits
	misses := after.DiskBlockReads - before.DiskBlockReads
	cold := float64(hits) / float64(hits+misses)
	if cold >= warm {
		t.Errorf("post-restart hit rate %.3f not colder than %.3f", cold, warm)
	}
}

// TestTimeWindowStrategy: compaction strategy 2 (Cassandra's
// TimeWindowCompactionStrategy, which the paper's footnote 5 excludes)
// is outside the space, so building or reconfiguring an engine with it
// returns an error instead of panicking.
func TestTimeWindowStrategy(t *testing.T) {
	timeWindow := config.Config{config.ParamCompactionStrategy: 2}
	if err := config.Cassandra().Validate(timeWindow); err == nil {
		t.Error("the Cassandra space accepted compaction strategy 2")
	}
	if _, err := nosql.New(nosql.Options{Space: config.Cassandra(), Config: timeWindow, Seed: 1}); err == nil {
		t.Error("New accepted compaction strategy 2")
	}
	eng := newTestEngine(t, nil, 1)
	if err := eng.Apply(timeWindow); err == nil {
		t.Error("Apply accepted compaction strategy 2")
	}
}

// TestCassandraExtendedSpace: the compaction domain the engine is built
// from holds exactly size-tiered and leveled; the engine accepts each of
// them at construction and on reconfiguration, and strategy 2 has no name.
func TestCassandraExtendedSpace(t *testing.T) {
	p := config.Cassandra().MustParam(config.ParamCompactionStrategy)
	if p.Max != config.CompactionLeveled || len(p.Values) != 2 {
		t.Errorf("compaction domain: %+v", p)
	}
	want := map[float64]string{config.CompactionSizeTiered: "SizeTiered", config.CompactionLeveled: "Leveled", 2: "2"}
	for v, name := range want {
		if got := p.ValueName(v); got != name {
			t.Errorf("ValueName(%v) = %q, want %q", v, got, name)
		}
	}
	eng := newTestEngine(t, nil, 1)
	for _, v := range p.Sweep {
		cfg := config.Config{config.ParamCompactionStrategy: v}
		if _, err := nosql.New(nosql.Options{Space: config.Cassandra(), Config: cfg, Seed: 1}); err != nil {
			t.Errorf("New rejected strategy %s: %v", p.ValueName(v), err)
		}
		if err := eng.Apply(cfg); err != nil {
			t.Errorf("Apply rejected strategy %s: %v", p.ValueName(v), err)
		}
	}
}

func TestCompactAllAndDrain(t *testing.T) {
	eng := newTestEngine(t, config.Config{
		config.ParamCompactionThroughput: 256,
		config.ParamConcurrentCompactors: 8,
	}, 60)
	eng.Preload(3)
	for i := 0; i < 40_000; i++ {
		eng.Write(uint64(i) % uint64(eng.KeySpace()))
	}
	eng.FinishEpoch()
	before := eng.Metrics().SSTables
	if before < 3 {
		t.Fatalf("need several tables, have %d", before)
	}
	// Let pending merges finish so the major compaction claims every
	// table, then drain it.
	eng.DrainBackground(30)
	eng.CompactAll()
	eng.DrainBackground(30)
	m := eng.Metrics()
	if m.SSTables != 1 {
		t.Errorf("major compaction left %d tables, want 1", m.SSTables)
	}
	if m.Compactions == 0 {
		t.Error("no compaction completed")
	}
	// All preloaded keys still readable.
	eng.Read(0)
	eng.FinishEpoch()
	if eng.Metrics().DiskBlockReads+eng.Metrics().FileCacheHits == 0 {
		t.Error("data lost by major compaction")
	}
	// Degenerate calls are no-ops.
	eng.CompactAll()
	eng.DrainBackground(0)
	eng.DrainBackground(-1)
}

func TestMajorCompactionImprovesReads(t *testing.T) {
	run := func(compact bool) float64 {
		eng := newTestEngine(t, config.Config{
			config.ParamCompactionThroughput: 256,
			config.ParamConcurrentCompactors: 8,
		}, 61)
		eng.Preload(3)
		for i := 0; i < 60_000; i++ {
			eng.Write(uint64(i*7) % uint64(eng.KeySpace()))
		}
		eng.FinishEpoch()
		if compact {
			eng.CompactAll()
			eng.DrainBackground(60)
		}
		return runSpec(t, eng, 1.0, 40_000, 62).Throughput
	}
	fragmented := run(false)
	compacted := run(true)
	if compacted <= fragmented {
		t.Errorf("major compaction should speed reads: %v vs %v", compacted, fragmented)
	}
}

// TestWriteSizedScalesWithPayload pins the sized-write path the
// workload suite's payload sampler drives: oversized payloads must
// cost more CPU and fill the memtable faster than default rows, and a
// non-positive size must fall back to the hardware default exactly.
func TestWriteSizedScalesWithPayload(t *testing.T) {
	run := func(write func(e *nosql.Engine, key uint64)) nosql.Metrics {
		eng := newTestEngine(t, nil, 77)
		for i := 0; i < 4000; i++ {
			write(eng, uint64(i%257))
		}
		eng.FinishEpoch()
		return eng.Metrics()
	}
	plain := run(func(e *nosql.Engine, key uint64) { e.Write(key) })
	fallback := run(func(e *nosql.Engine, key uint64) { e.WriteSized(key, 0) })
	big := run(func(e *nosql.Engine, key uint64) { e.WriteSized(key, 64*1024) })
	if plain.VirtualSeconds != fallback.VirtualSeconds || plain.Flushes != fallback.Flushes {
		t.Errorf("WriteSized(0) fallback diverged from Write: %v/%d vs %v/%d",
			fallback.VirtualSeconds, fallback.Flushes, plain.VirtualSeconds, plain.Flushes)
	}
	if big.VirtualSeconds <= plain.VirtualSeconds {
		t.Errorf("64KiB writes cost %vs, default rows %vs; sized path should charge more CPU",
			big.VirtualSeconds, plain.VirtualSeconds)
	}
	if big.Flushes <= plain.Flushes {
		t.Errorf("64KiB writes flushed %d times, default rows %d; bigger payloads should fill the memtable faster",
			big.Flushes, plain.Flushes)
	}
}

// TestHasCellSeesTombstonesEverywhere: HasCell must report physical
// presence (live cells and tombstones, memtable or SSTable) while
// Alive tracks logical liveness.
func TestHasCellSeesTombstonesEverywhere(t *testing.T) {
	eng := newTestEngine(t, config.Config{config.ParamMemtableCleanup: 0.05}, 78)
	if eng.HasCell(1) {
		t.Error("fresh engine should have no cell for key 1")
	}
	eng.Write(1)
	if !eng.HasCell(1) || !eng.Alive(1) {
		t.Error("memtable write should be visible to HasCell and Alive")
	}
	eng.Delete(1)
	if !eng.HasCell(1) {
		t.Error("memtable tombstone is still a physical cell")
	}
	if eng.Alive(1) {
		t.Error("deleted key should not be Alive")
	}
	// Force a flush by writing enough other keys.
	for k := uint64(100); k < 8000; k++ {
		eng.Write(k)
	}
	eng.FinishEpoch()
	if eng.Metrics().Flushes == 0 {
		t.Fatal("test needs a flush")
	}
	if !eng.HasCell(1) {
		t.Error("flushed tombstone should be found in SSTables")
	}
	if eng.Alive(1) {
		t.Error("flushed tombstone should keep the key dead")
	}
}
