package nosql

import "rafiki/internal/stats"

// Metrics is a snapshot of the engine's counters and derived statistics.
// The engine's own copy is its one always-on ledger: an engine built
// with Options.Obs exports it (obs.Registry.Export), and a snapshot
// reports each `obs`-tagged field under that name, summed over every
// engine on the registry.
type Metrics struct {
	// Reads and Writes count completed operations; Deletes counts
	// tombstone writes; Scans counts range-scan operations, ScanRows
	// the live rows they returned, and ScanCells every cell version
	// their merged iterators examined (the scan read amplification).
	Reads     uint64 `obs:"nosql.reads"`
	Writes    uint64 `obs:"nosql.writes"`
	Deletes   uint64 `obs:"nosql.deletes"`
	Scans     uint64 `obs:"nosql.scans"`
	ScanRows  uint64 `obs:"nosql.scan_rows"`
	ScanCells uint64
	// VirtualSeconds is the simulated wall-clock time consumed.
	VirtualSeconds float64
	// Epochs counts closed accounting epochs, the length of the two
	// series below unless Options.DropEpochSeries left them empty.
	Epochs uint64 `obs:"nosql.epochs"`
	// EpochThroughputs records ops/s for each closed accounting epoch —
	// the 10-second samples behind the paper's Figure 10.
	EpochThroughputs []float64
	// EpochLatencies records the mean operation latency (seconds) per
	// epoch, derived from the closed-loop client pool by Little's law.
	// Section 3.8 lets the DBA tune for latency instead of throughput;
	// these feed that objective.
	EpochLatencies []float64

	// Flushes counts memtable flushes, ForcedFlushes the subset forced
	// by commit-log space exhaustion.
	Flushes       uint64 `obs:"nosql.flushes"`
	ForcedFlushes uint64 `obs:"nosql.flushes_forced"`
	// Compactions counts completed compaction tasks and
	// CompactionBytes their total disk traffic.
	Compactions     uint64 `obs:"nosql.compactions"`
	CompactionBytes float64
	// StallSeconds is time writes spent blocked behind flush backlog.
	StallSeconds float64

	// SSTables is the current live table count; MaxSSTables the peak.
	SSTables, MaxSSTables int
	// DiskBlockReads counts block fetches that went to disk;
	// FileCacheHits those served by the file cache.
	DiskBlockReads, FileCacheHits uint64
	// RowCacheHits counts reads served entirely from the row cache.
	RowCacheHits uint64
	// BloomChecks counts per-table bloom filter consultations and
	// BloomFalsePositives the consultations that passed for an absent
	// key (costing a wasted index lookup and block fetch).
	BloomChecks         uint64
	BloomFalsePositives uint64
	// MemtableHits counts reads answered by the memtable.
	MemtableHits uint64
	// CompactionBacklogBytes is the disk traffic still owed to pending
	// compaction tasks at snapshot time.
	CompactionBacklogBytes float64
	// Restarts counts simulated crash-recoveries and ReplayedRecords the
	// commit-log records re-applied by them.
	Restarts        uint64 `obs:"nosql.restarts"`
	ReplayedRecords uint64
	// CorruptedLogRecords counts commit-log records lost to injected
	// tail corruption — acknowledged writes a crash cannot recover.
	CorruptedLogRecords uint64
	// TombstonesEvicted counts delete markers garbage-collected by
	// compaction once no older version could survive.
	TombstonesEvicted uint64
	// ExpiredCells counts TTL'd cells converted to tombstones when
	// compaction found them past their expiry.
	ExpiredCells uint64
}

// Ops returns the total operation count.
func (m Metrics) Ops() uint64 { return m.Reads + m.Writes + m.Deletes + m.Scans }

// Throughput returns average operations per simulated second.
func (m Metrics) Throughput() float64 {
	if m.VirtualSeconds <= 0 {
		return 0
	}
	return float64(m.Ops()) / m.VirtualSeconds
}

// FileCacheHitRate returns the file cache hit fraction.
func (m Metrics) FileCacheHitRate() float64 {
	total := m.DiskBlockReads + m.FileCacheHits
	if total == 0 {
		return 0
	}
	return float64(m.FileCacheHits) / float64(total)
}

// LatencyPercentile returns the q-th (0..1) percentile of per-epoch
// mean latencies in seconds, or 0 when no epochs closed. The high
// percentiles surface compaction/flush interference spikes.
func (m Metrics) LatencyPercentile(q float64) float64 {
	if len(m.EpochLatencies) == 0 {
		return 0
	}
	v, err := stats.Quantile(m.EpochLatencies, q)
	if err != nil {
		return 0
	}
	return v
}

// ReadAmplification returns average disk block reads per read op.
func (m Metrics) ReadAmplification() float64 {
	if m.Reads == 0 {
		return 0
	}
	return float64(m.DiskBlockReads) / float64(m.Reads)
}
