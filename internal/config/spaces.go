package config

// Canonical parameter names shared by the engine, the ANOVA stage, and
// the surrogate model. Names follow cassandra.yaml conventions.
const (
	// The five key parameters identified by the paper (Section 3.4.1).
	ParamCompactionStrategy   = "compaction_strategy"
	ParamConcurrentWrites     = "concurrent_writes"
	ParamFileCacheSize        = "file_cache_size_in_mb"
	ParamMemtableCleanup      = "memtable_cleanup_threshold"
	ParamConcurrentCompactors = "concurrent_compactors"

	// Remaining performance-related parameters (Section 3.4: "over 25
	// performance-related configuration parameters").
	ParamConcurrentReads       = "concurrent_reads"
	ParamMemtableFlushWriters  = "memtable_flush_writers"
	ParamMemtableHeapSpace     = "memtable_heap_space_in_mb"
	ParamMemtableOffheapSpace  = "memtable_offheap_space_in_mb"
	ParamCompactionThroughput  = "compaction_throughput_mb_per_sec"
	ParamCommitlogSyncPeriod   = "commitlog_sync_period_in_ms"
	ParamCommitlogSegmentSize  = "commitlog_segment_size_in_mb"
	ParamCommitlogTotalSpace   = "commitlog_total_space_in_mb"
	ParamKeyCacheSize          = "key_cache_size_in_mb"
	ParamRowCacheSize          = "row_cache_size_in_mb"
	ParamSSTablePreemptiveOpen = "sstable_preemptive_open_interval_in_mb"
	ParamIndexSummaryCapacity  = "index_summary_capacity_in_mb"
	ParamColumnIndexSize       = "column_index_size_in_kb"
	ParamBatchSizeWarn         = "batch_size_warn_threshold_in_kb"
	ParamDynamicSnitchInterval = "dynamic_snitch_update_interval_in_ms"
	ParamHintedHandoffThrottle = "hinted_handoff_throttle_in_kb"
	ParamTrickleFsyncInterval  = "trickle_fsync_interval_in_kb"
	ParamStreamThroughput      = "stream_throughput_outbound_megabits_per_sec"
	ParamRequestTimeout        = "request_timeout_in_ms"
	ParamNativeTransportMax    = "native_transport_max_threads"
)

// GroupMemtableFlush labels the parameters that jointly control
// memtable flushing. Section 4.5 consolidates them: Cassandra computes
// the flush trigger from memtable space and memtable_cleanup_threshold,
// so only the threshold joins the key-parameter set.
const GroupMemtableFlush = "memtable-flush"

// Compaction strategy levels for ParamCompactionStrategy. Cassandra's
// third, TimeWindowCompactionStrategy, fits time-series/TTL workloads;
// the paper's footnote 5 excludes it ("not relevant for our workload"),
// so the model has none.
const (
	CompactionSizeTiered = 0 // default; favours write-heavy workloads
	CompactionLeveled    = 1 // bounds read amplification; favours reads
)

// cassandraParams returns the full Cassandra performance-parameter list.
func cassandraParams() []Parameter {
	return []Parameter{
		{
			Name:    ParamCompactionStrategy,
			Kind:    Categorical,
			Min:     0,
			Max:     1,
			Default: CompactionSizeTiered,
			Values:  []string{"SizeTiered", "Leveled"},
			Sweep:   []float64{CompactionSizeTiered, CompactionLeveled},
		},
		{Name: ParamConcurrentWrites, Kind: Integer, Min: 16, Max: 128, Default: 32, Sweep: []float64{16, 32, 64, 128}},
		{Name: ParamFileCacheSize, Kind: Integer, Min: 32, Max: 2048, Default: 512, Sweep: []float64{32, 512, 1024, 2048}},
		{Name: ParamMemtableCleanup, Kind: Continuous, Min: 0.05, Max: 0.6, Default: 0.11, Sweep: []float64{0.05, 0.11, 0.3, 0.6}, Group: GroupMemtableFlush},
		{Name: ParamConcurrentCompactors, Kind: Integer, Min: 1, Max: 16, Default: 2, Sweep: []float64{1, 2, 8, 16}},

		{Name: ParamConcurrentReads, Kind: Integer, Min: 8, Max: 96, Default: 32, Sweep: []float64{8, 32, 64, 96}},
		{Name: ParamMemtableFlushWriters, Kind: Integer, Min: 1, Max: 8, Default: 2, Sweep: []float64{1, 2, 4, 8}, Group: GroupMemtableFlush},
		{Name: ParamMemtableHeapSpace, Kind: Integer, Min: 256, Max: 4096, Default: 2048, Sweep: []float64{256, 1024, 2048, 4096}, Group: GroupMemtableFlush},
		{Name: ParamMemtableOffheapSpace, Kind: Integer, Min: 256, Max: 4096, Default: 2048, Sweep: []float64{256, 1024, 2048, 4096}, Group: GroupMemtableFlush},
		{Name: ParamCompactionThroughput, Kind: Integer, Min: 4, Max: 256, Default: 16, Sweep: []float64{4, 16, 64, 256}},
		{Name: ParamCommitlogSyncPeriod, Kind: Integer, Min: 2, Max: 20000, Default: 10000, Sweep: []float64{2, 100, 10000, 20000}},
		{Name: ParamCommitlogSegmentSize, Kind: Integer, Min: 8, Max: 64, Default: 32, Sweep: []float64{8, 16, 32, 64}},
		{Name: ParamCommitlogTotalSpace, Kind: Integer, Min: 1024, Max: 8192, Default: 8192, Sweep: []float64{1024, 2048, 4096, 8192}},
		{Name: ParamKeyCacheSize, Kind: Integer, Min: 0, Max: 512, Default: 100, Sweep: []float64{0, 100, 256, 512}},
		{Name: ParamRowCacheSize, Kind: Integer, Min: 0, Max: 2048, Default: 0, Sweep: []float64{0, 256, 1024, 2048}},
		{Name: ParamSSTablePreemptiveOpen, Kind: Integer, Min: 10, Max: 100, Default: 50, Sweep: []float64{10, 25, 50, 100}},
		{Name: ParamIndexSummaryCapacity, Kind: Integer, Min: 16, Max: 512, Default: 128, Sweep: []float64{16, 64, 128, 512}},
		{Name: ParamColumnIndexSize, Kind: Integer, Min: 4, Max: 256, Default: 64, Sweep: []float64{4, 16, 64, 256}},
		{Name: ParamBatchSizeWarn, Kind: Integer, Min: 5, Max: 50, Default: 5, Sweep: []float64{5, 10, 25, 50}},
		{Name: ParamDynamicSnitchInterval, Kind: Integer, Min: 100, Max: 1000, Default: 100, Sweep: []float64{100, 250, 500, 1000}},
		{Name: ParamHintedHandoffThrottle, Kind: Integer, Min: 512, Max: 4096, Default: 1024, Sweep: []float64{512, 1024, 2048, 4096}},
		{Name: ParamTrickleFsyncInterval, Kind: Integer, Min: 1024, Max: 20480, Default: 10240, Sweep: []float64{1024, 5120, 10240, 20480}},
		{Name: ParamStreamThroughput, Kind: Integer, Min: 50, Max: 400, Default: 200, Sweep: []float64{50, 100, 200, 400}},
		{Name: ParamRequestTimeout, Kind: Integer, Min: 1000, Max: 20000, Default: 10000, Sweep: []float64{1000, 5000, 10000, 20000}},
		{Name: ParamNativeTransportMax, Kind: Integer, Min: 32, Max: 256, Default: 128, Sweep: []float64{32, 64, 128, 256}},
	}
}

// Cassandra returns the Cassandra 3.x configuration space with the
// paper's five key parameters pre-selected (Section 3.4.1): compaction
// strategy, concurrent writes, file cache size, memtable cleanup
// threshold, and concurrent compactors.
func Cassandra() *Space {
	s, err := NewSpace("cassandra", cassandraParams())
	if err != nil {
		panic("config: building cassandra space: " + err.Error())
	}
	s.KeyNames = []string{
		ParamCompactionStrategy,
		ParamConcurrentWrites,
		ParamFileCacheSize,
		ParamMemtableCleanup,
		ParamConcurrentCompactors,
	}
	s.SetGroupRepresentative(GroupMemtableFlush, ParamMemtableCleanup)
	return s
}

// ScyllaDB returns the ScyllaDB configuration space. ScyllaDB's internal
// auto-tuner overrides several user settings (Section 4.10), so those
// parameters are marked ignored and the key set is Cassandra's ANOVA
// ranking with ignored parameters stripped and the next-highest-variance
// parameters added until five remain.
func ScyllaDB() *Space {
	s, err := NewSpace("scylladb", cassandraParams())
	if err != nil {
		panic("config: building scylladb space: " + err.Error())
	}
	s.SetIgnored(
		ParamFileCacheSize,
		ParamConcurrentCompactors,
		ParamConcurrentReads,
		ParamMemtableFlushWriters,
	)
	s.KeyNames = []string{
		ParamCompactionStrategy,
		ParamConcurrentWrites,
		ParamMemtableCleanup,
		ParamCompactionThroughput,
		ParamMemtableHeapSpace,
	}
	s.SetGroupRepresentative(GroupMemtableFlush, ParamMemtableCleanup)
	return s
}
