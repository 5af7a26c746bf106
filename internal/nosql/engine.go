package nosql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rafiki/internal/config"
	"rafiki/internal/obs"
)

// CostModel groups the coefficients that translate structural events
// (probes, flushes, merges) into virtual time. Defaults are calibrated
// so the default Cassandra configuration lands in the paper's 40k-110k
// ops/s band with the paper's qualitative shapes; see the calibration
// tests in engine_calibration_test.go.
type CostModel struct {
	// WriteCPUSeconds is the CPU cost of one write (request parsing,
	// memtable insert, commit-log append).
	WriteCPUSeconds float64
	// WritePathWaitSeconds is the per-write latency (commit-log group
	// commit, stage hand-offs) hidden by concurrent_writes threads.
	WritePathWaitSeconds float64
	// ReadCPUSeconds is the base CPU cost of one read.
	ReadCPUSeconds float64
	// BloomCheckCPUSeconds is charged per SSTable consulted.
	BloomCheckCPUSeconds float64
	// IndexCPUSeconds is the partition-index lookup cost per table that
	// may hold the key; the key cache elides part of it.
	IndexCPUSeconds float64
	// ScanSeekCPUSeconds is charged per SSTable a range scan must
	// position a cursor in. Bloom filters answer point membership only,
	// so every table overlapping the range pays it — the mechanism that
	// makes many overlapping generations (size-tiered under churn)
	// expensive for scans and few wide runs (leveled) cheap.
	ScanSeekCPUSeconds float64
	// ScanNextCPUSeconds is the per-cell merge step cost of a range
	// scan's iterator (heap pop, cell version comparison).
	ScanNextCPUSeconds float64
	// MemtableDepthCoeff scales the log2(len) skiplist-depth term of
	// memtable inserts (the mechanism that penalizes very large
	// memtable_cleanup_threshold values).
	MemtableDepthCoeff float64
	// MergeCPUSecondsPerByte is compaction/flush merge CPU.
	MergeCPUSecondsPerByte float64
	// CommitLogWriteAmp is the ratio of commit-log device traffic to
	// payload bytes (fsync padding, segment headers, mirrored writes).
	CommitLogWriteAmp float64
	// ReadOverlap is the effective number of concurrently-served disk
	// block fetches (mirrored spindles + request reordering).
	ReadOverlap float64
	// MissTransferBytes is the data actually moved on a file-cache
	// miss; the OS page cache in front of the array means a miss rarely
	// pays for the full 64 KiB chunk.
	MissTransferBytes float64
	// CacheBlockBytes is the effective per-block footprint used when
	// converting file_cache_size_in_mb into block slots (cached blocks
	// are hot and partially resident, so it sits between
	// MissTransferBytes and the full chunk size).
	CacheBlockBytes float64
	// ThreadsPerCore is the oversubscription knee: beyond
	// cores*ThreadsPerCore runnable threads, contention grows (the
	// paper's "8 x number of CPU cores" guidance for CW).
	ThreadsPerCore float64
	// ContentionCoeff scales the quadratic oversubscription penalty.
	ContentionCoeff float64
	// InterferenceCoeff scales how much background disk traffic
	// (flush/compaction) inflates foreground disk time.
	InterferenceCoeff float64
	// CompactorInterferenceCoeff adds per-active-compactor seek
	// interference: many simultaneous merges fragment the disk's access
	// pattern.
	CompactorInterferenceCoeff float64
	// CompactorRateMBps is one compactor thread's merge throughput.
	CompactorRateMBps float64
	// FlushRateMBps is one flush writer's sequential write throughput.
	FlushRateMBps float64
	// SizeTieredMinThreshold is the similar-size table count that
	// triggers a size-tiered merge (4 in Cassandra, 2 in ScyllaDB).
	SizeTieredMinThreshold int
	// LeveledBaseBytes is the L1 target size (scaled bytes).
	LeveledBaseBytes float64
	// DebtLimitBytes is the compaction backlog the engine absorbs
	// before write backpressure kicks in (real engines throttle writes
	// when compaction falls behind; leveled compaction's ~10x write
	// amplification is what makes it lose on write-heavy workloads).
	DebtLimitBytes float64
	// DebtStallSecondsPerWrite is the per-write throttle applied per
	// unit of backlog overshoot.
	DebtStallSecondsPerWrite float64
	// HeapFileCacheCoeff scales the GC/heap-pressure slowdown of
	// oversized file caches (beyond the recommended min(heap/4, 512MB)).
	HeapFileCacheCoeff float64
	// HeapMemtableCoeff scales the GC pressure of large
	// memtable_cleanup_threshold values (huge memtables churn the heap).
	HeapMemtableCoeff float64
	// HeapRowCacheCoeff scales the heap cost of the row cache, which
	// stores whole rows on-heap.
	HeapRowCacheCoeff float64
	// ClientConcurrency is the closed-loop client count used to derive
	// latency from throughput (Little's law: latency = clients/rate).
	ClientConcurrency float64
	// NoiseSigma is the log-normal epoch noise (measurement jitter).
	NoiseSigma float64
	// ReconfigDowntimeSeconds is charged when Apply changes the
	// configuration at runtime. Scaled like the capacities: a real
	// reconfiguration costs tens of seconds of a 15-minute window; the
	// scaled default keeps the same proportion of a scaled window.
	ReconfigDowntimeSeconds float64
}

// DefaultCostModel returns the calibrated coefficients.
func DefaultCostModel() CostModel {
	return CostModel{
		WriteCPUSeconds:            55e-6,
		WritePathWaitSeconds:       280e-6,
		ReadCPUSeconds:             50e-6,
		BloomCheckCPUSeconds:       1.0e-6,
		IndexCPUSeconds:            4e-6,
		ScanSeekCPUSeconds:         18e-6,
		ScanNextCPUSeconds:         0.8e-6,
		MemtableDepthCoeff:         0.035,
		MergeCPUSecondsPerByte:     8e-9,
		CommitLogWriteAmp:          1.5,
		ReadOverlap:                6,
		MissTransferBytes:          8192,
		CacheBlockBytes:            20480,
		ThreadsPerCore:             6,
		ContentionCoeff:            0.55,
		InterferenceCoeff:          0.5,
		CompactorInterferenceCoeff: 0.045,
		CompactorRateMBps:          6,
		FlushRateMBps:              120,
		SizeTieredMinThreshold:     4,
		LeveledBaseBytes:           4 * 1024 * 1024,
		DebtLimitBytes:             72 * 1024 * 1024,
		DebtStallSecondsPerWrite:   2.5e-6,
		HeapFileCacheCoeff:         0.55,
		HeapMemtableCoeff:          0.35,
		HeapRowCacheCoeff:          0.15,
		ClientConcurrency:          64,
		NoiseSigma:                 0.015,
		ReconfigDowntimeSeconds:    0.05,
	}
}

// debugEpochs dumps per-epoch cost terms (debug builds only).
var debugEpochs = false

// params is the engine's resolved view of a configuration.
type params struct {
	compaction           int
	concurrentWrites     float64
	fileCacheMB          float64
	memtableCleanup      float64
	concurrentCompactors float64

	concurrentReads       float64
	flushWriters          float64
	memHeapMB             float64
	memOffheapMB          float64
	compactionThroughput  float64
	commitlogSyncPeriodMs float64
	commitlogSegmentMB    float64
	commitlogTotalMB      float64
	keyCacheMB            float64
	rowCacheMB            float64
	columnIndexKB         float64
}

// Options configures an Engine.
type Options struct {
	// Space defines the parameter space (config.Cassandra() or
	// config.ScyllaDB()).
	Space *config.Space
	// Config holds the initial settings; missing keys use defaults.
	Config config.Config
	// Hardware is the simulated server; zero value uses DefaultHardware.
	Hardware Hardware
	// Model holds cost coefficients; zero value uses DefaultCostModel.
	Model CostModel
	// Seed drives all stochastic behaviour.
	Seed int64
	// EpochOps is the accounting epoch length in operations (default
	// 1024).
	EpochOps int
	// Obs, when non-nil, receives the engine's metrics and spans. Nil
	// (the default) disables instrumentation at ~zero cost.
	Obs *obs.Registry
	// DropEpochSeries, when set, keeps no per-epoch rate: Metrics
	// returns empty epoch series while Epochs still counts. A cluster
	// node sets it, since the cluster never returns its nodes' series
	// and at EpochOps 1 the series takes a float64 per operation.
	DropEpochSeries bool
}

// Engine is the simulated storage engine. It is not safe for concurrent
// use; the benchmark drivers are single-goroutine and deterministic.
type Engine struct {
	space *config.Space
	hw    Hardware
	model CostModel
	rng   *rand.Rand

	epochOps int
	p        params
	strategy compactionStrategy
	// cfgVec is the reusable dense resolved-configuration scratch
	// configure() fills.
	cfgVec []float64
	// paramsCache memoizes Params(); configure() invalidates it.
	paramsCache map[string]float64

	mem       *memtable
	tables    tableSet
	fileCache *blockCache
	rowCache  *blockCache

	flushQ      []*backgroundTask
	compQ       []*backgroundTask
	nextTableID uint64

	clock float64
	log   *commitLog

	// diskTax and cpuTax are straggler multipliers (>= 1) on the node's
	// disk and CPU costs, the fault layer's model of a degraded member
	// (failing disk, noisy neighbour stealing cycles). 1 means healthy.
	diskTax float64
	cpuTax  float64

	// Background activity observed over the previous epoch, feeding the
	// interference and contention terms of the next one.
	bgDiskBusyFrac float64
	bgCPUFrac      float64

	ep epochAcc
	// m holds the counters, the engine's exported ledger: an allocation
	// of its own, so a registry that outlives the engine pins only this.
	// Its epoch series stay nil — rates is their one record, and Metrics
	// builds both series from it. dropRates leaves rates empty.
	m         *Metrics
	rates     epochSeries
	dropRates bool
	o         engineObs

	// scanSrcs is the merged range iterator's reusable cursor scratch;
	// scans are the hot path the alloc guard pins.
	scanSrcs []scanSource
	// scanBits is its window scratch: scanWindow rows of one word per
	// 64 cursors, all zero between scans.
	scanBits []uint64
	// expiredScratch is the compaction planner's reusable buffer for
	// TTL-expired keys (sorted before eviction so merge results never
	// follow map iteration order).
	expiredScratch []uint64

	// throughputFactor, when set, scales each epoch's duration; the
	// ScyllaDB auto-tuner variance hooks in here.
	throughputFactor func(dt float64) float64
}

// epochAcc accumulates one epoch's foreground demand.
type epochAcc struct {
	ops, reads, writes int
	writeCPU, readCPU  float64
	commitBytes        float64
	readMissBlocks     int
	stallSeconds       float64
}

// New constructs an engine.
func New(opts Options) (*Engine, error) {
	if opts.Space == nil {
		return nil, fmt.Errorf("nosql: Options.Space is required")
	}
	hw := opts.Hardware
	if hw == (Hardware{}) {
		hw = DefaultHardware()
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	model := opts.Model
	if model == (CostModel{}) {
		model = DefaultCostModel()
	}
	epochOps := opts.EpochOps
	if epochOps <= 0 {
		epochOps = 1024
	}
	e := &Engine{
		space:     opts.Space,
		hw:        hw,
		model:     model,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		epochOps:  epochOps,
		mem:       newMemtable(hw.RowBytes),
		diskTax:   1,
		cpuTax:    1,
		m:         new(Metrics),
		dropRates: opts.DropEpochSeries,
		o:         newEngineObs(opts.Obs),
	}
	e.log = newCommitLog(hw.ScaledBytes(32), float64(hw.RowBytes))
	cfg := opts.Config
	if cfg == nil {
		cfg = opts.Space.Default()
	}
	if err := e.configure(cfg); err != nil {
		return nil, err
	}
	opts.Obs.Export(e.m)
	return e, nil
}

// configure resolves cfg into params and rebuilds strategy and caches.
// The map form of cfg stops here: it is validated once at this public
// boundary and resolved into the engine's dense cfgVec scratch, so a
// reconfiguration allocates nothing after the first.
func (e *Engine) configure(cfg config.Config) error {
	if err := e.space.Validate(cfg); err != nil {
		return err
	}
	e.cfgVec = e.space.ResolveInto(e.cfgVec, cfg)
	at := func(name string) float64 {
		i, ok := e.space.Index(name)
		if !ok {
			// A space without one of the engine's parameters cannot drive
			// the engine at all; New configures, so it surfaces there.
			panic(fmt.Sprintf("nosql: space %q missing parameter %q", e.space.Name, name))
		}
		return e.cfgVec[i]
	}
	p := params{
		compaction:            int(at(config.ParamCompactionStrategy)),
		concurrentWrites:      at(config.ParamConcurrentWrites),
		fileCacheMB:           at(config.ParamFileCacheSize),
		memtableCleanup:       at(config.ParamMemtableCleanup),
		concurrentCompactors:  at(config.ParamConcurrentCompactors),
		concurrentReads:       at(config.ParamConcurrentReads),
		flushWriters:          at(config.ParamMemtableFlushWriters),
		memHeapMB:             at(config.ParamMemtableHeapSpace),
		memOffheapMB:          at(config.ParamMemtableOffheapSpace),
		compactionThroughput:  at(config.ParamCompactionThroughput),
		commitlogSyncPeriodMs: at(config.ParamCommitlogSyncPeriod),
		commitlogSegmentMB:    at(config.ParamCommitlogSegmentSize),
		commitlogTotalMB:      at(config.ParamCommitlogTotalSpace),
		keyCacheMB:            at(config.ParamKeyCacheSize),
		rowCacheMB:            at(config.ParamRowCacheSize),
		columnIndexKB:         at(config.ParamColumnIndexSize),
	}
	e.p = p
	e.paramsCache = nil

	strategy, err := newStrategy(p.compaction, e)
	if err != nil {
		return err
	}
	e.strategy = strategy

	// Capacity is accounted at miss-transfer granularity: the cache
	// keeps hot row segments, not whole chunks.
	fileBlocks := int(e.hw.ScaledBytes(p.fileCacheMB) / e.model.CacheBlockBytes)
	if e.fileCache == nil {
		e.fileCache = newBlockCache(fileBlocks)
	} else {
		e.fileCache.Resize(fileBlocks)
	}
	// Row-cache entries hold whole partitions, several rows wide in the
	// MG-RAST schema, so far fewer entries fit than raw row math says.
	const partitionRows = 8
	rowEntries := int(e.hw.ScaledBytes(p.rowCacheMB) / float64(partitionRows*e.hw.RowBytes))
	if e.log != nil {
		e.log.Resize(e.hw.ScaledBytes(p.commitlogSegmentMB))
	}
	if e.rowCache == nil {
		e.rowCache = newBlockCache(rowEntries)
	} else {
		e.rowCache.Resize(rowEntries)
	}
	return nil
}

// Apply reconfigures the engine at runtime (Rafiki's online stage). It
// charges the reconfiguration downtime and re-plans compaction under
// the new strategy.
func (e *Engine) Apply(cfg config.Config) error {
	if err := e.configure(cfg); err != nil {
		return err
	}
	e.clock += e.model.ReconfigDowntimeSeconds
	e.m.VirtualSeconds += e.model.ReconfigDowntimeSeconds
	e.enqueueTasks(e.strategy.Plan(e))
	return nil
}

// Params returns the engine's effective key-parameter values. The map
// is built once per configuration and shared across calls — callers
// must treat it as read-only (Apply invalidates and rebuilds it).
//
//rafiki:view
func (e *Engine) Params() map[string]float64 {
	if e.paramsCache == nil {
		e.paramsCache = map[string]float64{
			config.ParamCompactionStrategy:   float64(e.p.compaction),
			config.ParamConcurrentWrites:     e.p.concurrentWrites,
			config.ParamFileCacheSize:        e.p.fileCacheMB,
			config.ParamMemtableCleanup:      e.p.memtableCleanup,
			config.ParamConcurrentCompactors: e.p.concurrentCompactors,
		}
	}
	return e.paramsCache
}

// KeySpace returns the scaled number of distinct keys.
func (e *Engine) KeySpace() int { return e.hw.ScaledKeySpace() }

// Clock returns the virtual time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Metrics returns a snapshot of counters. The epoch series are built
// for the caller, who owns them: the engine keeps only each epoch's
// rate, and an epoch's latency is the client pool over that rate
// (Little's law).
func (e *Engine) Metrics() Metrics {
	m := *e.m
	m.EpochThroughputs = e.rates.appendTo(make([]float64, 0, e.rates.len()))
	if clients := e.model.ClientConcurrency; clients > 0 {
		m.EpochLatencies = make([]float64, len(m.EpochThroughputs))
		for i, rate := range m.EpochThroughputs {
			m.EpochLatencies[i] = clients / rate
		}
	}
	m.SSTables = e.tables.Len()
	for _, task := range e.compQ {
		m.CompactionBacklogBytes += task.remaining
	}
	return m
}

// Preload installs an initial on-disk dataset without charging time:
// every key exists, spread over overlapping generations so that reads
// start with realistic amplification. versions >= 1 controls overlap.
// The generations' runs come from the shared preload image (preload.go);
// the table headers, ids included, are the engine's own.
func (e *Engine) Preload(versions int) {
	if versions < 1 {
		versions = 1
	}
	n := uint64(e.hw.ScaledKeySpace())
	full := e.preloadTable(0, 1)
	if e.p.compaction == config.CompactionLeveled {
		// Dataset lives in the level whose target size fits it, plus a
		// sparse L1 run, mirroring a leveled tree at rest.
		full.level = e.restingLevel(full.Bytes())
		e.preloadTable(0, 32).level = 1
	} else {
		// A size-tiered steady state: one full-coverage table plus
		// geometrically smaller overlapping generations. The sizes are
		// >2x apart so no bucket reaches the merge threshold — a server
		// at rest has already digested its history.
		for g := 1; g < versions+1; g++ {
			stride := uint64(1) << uint(2*g) // 4^g
			// The keys with (k*2654435761+g*97)%stride == 0: an odd
			// multiplier and a power-of-two stride make that one residue
			// class, so find its first member and step.
			k0 := uint64(0)
			for (k0*2654435761+uint64(g)*97)%stride != 0 {
				k0++
			}
			if k0 >= n {
				continue
			}
			e.preloadTable(k0, stride)
		}
	}
	if e.tables.Len() > e.m.MaxSSTables {
		e.m.MaxSSTables = e.tables.Len()
	}
}

// preloadTable installs the keys first, first+stride, ... of the key
// space as a live SSTable over the shared run.
func (e *Engine) preloadTable(first, stride uint64) *ssTable {
	id, keysPerBlock := e.newTableID(), e.hw.KeysPerBlock()
	t := &ssTable{
		id: id,
		tableRun: preloadRun(preloadKey{
			keySpace:     e.hw.ScaledKeySpace(),
			keysPerBlock: keysPerBlock,
			first:        first,
			stride:       stride,
		}),
		seq:          id,
		rowBytes:     e.hw.RowBytes,
		keysPerBlock: keysPerBlock,
	}
	e.tables.Add(t)
	return t
}

// restingLevel returns the shallowest leveled-compaction level whose
// target size accommodates bytes.
func (e *Engine) restingLevel(bytes float64) int {
	level := 1
	target := e.model.LeveledBaseBytes
	for bytes > target && level < 8 {
		level++
		target *= 10
	}
	return level
}

// Write applies one write operation with the default payload size and
// no TTL.
//
//rafiki:hot
func (e *Engine) Write(key uint64) {
	e.writeCell(key, 0, float64(e.hw.RowBytes))
}

// WriteTTL applies one write whose cell expires ttlSeconds of virtual
// time after it lands; ttlSeconds <= 0 writes a plain cell. Expired
// cells disappear from reads and scans immediately and are converted to
// tombstones when compaction next touches them.
//
//rafiki:hot
func (e *Engine) WriteTTL(key uint64, ttlSeconds float64) {
	var expiry float64
	if ttlSeconds > 0 {
		expiry = e.clock + ttlSeconds
	}
	e.writeCell(key, expiry, float64(e.hw.RowBytes))
}

// WriteSized applies one write with an explicit payload size; the
// commit-log, memtable, and CPU accounting scale with it. A size <= 0
// falls back to the hardware's default row size.
//
//rafiki:hot
func (e *Engine) WriteSized(key uint64, payloadBytes int) {
	if payloadBytes <= 0 {
		payloadBytes = e.hw.RowBytes
	}
	e.writeCell(key, 0, float64(payloadBytes))
}

// writeCell is the shared write path behind Write/WriteTTL/WriteSized.
//
//rafiki:hot
func (e *Engine) writeCell(key uint64, expiry, payloadBytes float64) {
	e.ep.writes++
	e.ep.ops++
	depth := 1 + e.model.MemtableDepthCoeff*math.Log2(float64(e.mem.Len()+2))
	// Serialization cost grows sublinearly with payload; the default
	// row size keeps the calibrated per-write CPU exactly.
	sizeFactor := 0.75 + 0.25*payloadBytes/float64(e.hw.RowBytes)
	e.ep.writeCPU += e.model.WriteCPUSeconds * depth * sizeFactor
	e.ep.commitBytes += payloadBytes
	e.log.Append(key, false, expiry, payloadBytes)
	e.mem.Insert(key, expiry, payloadBytes)
	e.m.Writes++

	if e.rowCache.capacity > 0 {
		// A write invalidates the cached row; the cache refills only on
		// a subsequent read. Combined with MG-RAST's large key reuse
		// distance this is why the row cache is of limited value
		// (Section 3.3).
		e.rowCache.Remove(blockID{table: key})
	}

	flushThreshold := e.p.memtableCleanup * e.hw.ScaledBytes(e.p.memHeapMB+e.p.memOffheapMB)
	if e.mem.Bytes() >= flushThreshold {
		e.flush(false) //lint:allow hotalloc flush runs once per full memtable; its sstable build amortizes over thousands of writes
	} else if e.log.Bytes() >= e.hw.ScaledBytes(e.p.commitlogTotalMB) {
		e.flush(true) //lint:allow hotalloc log-pressure flush is a rare backpressure branch, not the steady write path
	}
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
}

// Read applies one read operation.
//
//rafiki:hot
func (e *Engine) Read(key uint64) {
	e.ep.reads++
	e.ep.ops++
	e.m.Reads++
	cpu := e.model.ReadCPUSeconds

	if e.rowCache.capacity > 0 && e.rowCache.Touch(blockID{table: key}) {
		e.m.RowCacheHits++
		e.ep.readCPU += cpu * 0.25
		if e.ep.ops >= e.epochOps {
			e.closeEpoch()
		}
		return
	}
	// A memtable hit supplies the freshest cell but does not end the
	// read: Cassandra must still merge the row's older versions from
	// every SSTable that holds it.
	if e.mem.Contains(key) {
		e.m.MemtableHits++
	}

	// Probe every live SSTable that might hold the key. Bloom filters
	// cost CPU per table; tables that (appear to) contain the key cost
	// an index lookup and a block fetch through the file cache. A filter
	// has no false negatives, so a table holding the key passed its
	// check; only for the others is the filter's answer unknown.
	keyCacheHit := e.keyCacheHitProb()
	indexCPU := e.model.IndexCPUSeconds * (64 / math.Max(e.p.columnIndexKB, 32))
	h1, h2 := hash2(key) // every table's filter probes from the same two hashes
	for _, t := range e.tables.tables {
		cpu += e.model.BloomCheckCPUSeconds
		e.m.BloomChecks++
		if !t.Contains(key) {
			if !t.MayContainHashed(h1, h2) {
				continue
			}
			e.m.BloomFalsePositives++
		}
		cpu += indexCPU * (1 - keyCacheHit)
		block := t.BlockFor(key)
		if e.fileCache.Touch(block) {
			e.m.FileCacheHits++
		} else {
			e.m.DiskBlockReads++
			e.ep.readMissBlocks++
		}
	}
	e.ep.readCPU += cpu
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
}

// FinishEpoch closes a partially-filled accounting epoch; benchmark
// drivers call it once at the end of a run.
func (e *Engine) FinishEpoch() {
	if e.ep.ops > 0 {
		e.closeEpoch()
	}
}

// keyCacheHitProb estimates the chance a key's index position is cached:
// entries follow an LRU over a uniform key space, approximated by the
// coverage ratio.
//
//rafiki:hot
func (e *Engine) keyCacheHitProb() float64 {
	const entryBytes = 64
	entries := e.hw.ScaledBytes(e.p.keyCacheMB) / entryBytes
	ks := float64(e.hw.ScaledKeySpace())
	if ks <= 0 {
		return 0
	}
	p := entries / ks
	if p > 0.95 {
		p = 0.95
	}
	if p < 0 {
		p = 0
	}
	return p
}

func (e *Engine) newTableID() uint64 {
	e.nextTableID++
	return e.nextTableID
}

// flush drains the memtable into a new level-0 SSTable and enqueues the
// background disk write, then lets the strategy plan compactions.
func (e *Engine) flush(forced bool) {
	keys, tombstones, expiries := e.mem.Drain()
	e.log.MarkFlushed()
	if len(keys) == 0 {
		return
	}
	t := newSSTable(e.newTableID(), slices.Clone(keys), e.hw.RowBytes, e.hw.KeysPerBlock(), e.hw.ScaledKeySpace())
	t.markTombstones(tombstones)
	t.markExpiries(expiries)
	e.tables.Add(t)
	if e.tables.Len() > e.m.MaxSSTables {
		e.m.MaxSSTables = e.tables.Len()
	}
	e.m.Flushes++
	if forced {
		e.m.ForcedFlushes++
	}

	task := &backgroundTask{
		kind:       taskFlush,
		diskBytes:  t.Bytes(),
		remaining:  t.Bytes(),
		cpuSeconds: e.model.MergeCPUSecondsPerByte * t.Bytes(),
		startedAt:  e.clock,
	}
	e.flushQ = append(e.flushQ, task)

	// Some freshly written blocks stay hot in the page cache; under
	// write pressure the kernel evicts the rest quickly, so only a
	// fraction is admitted. The table's sorted key order maps to
	// nondecreasing block numbers, so walking it yields the distinct
	// blocks in ascending order with no per-flush set or sort.
	nth := 0
	var lastBlock uint32
	for i, k := range t.keys() {
		b := uint32(k / t.blockSpan)
		if i > 0 && b == lastBlock {
			continue
		}
		lastBlock = b
		if nth%2 == 0 {
			e.fileCache.Admit(blockID{table: t.id, block: b})
		}
		nth++
	}

	// Writes stall when flushes outnumber flush writers: the memtable
	// that should absorb them has nowhere to drain.
	if excess := len(e.flushQ) - int(e.p.flushWriters); excess > 0 {
		var backlog float64
		for _, ft := range e.flushQ[:excess] {
			backlog += ft.remaining
		}
		rate := e.model.FlushRateMBps * 1024 * 1024
		e.ep.stallSeconds += 0.5 * backlog / rate
	}

	e.enqueueTasks(e.strategy.Plan(e))
}

// newCompactionTask claims inputs and precomputes the merged output.
func (e *Engine) newCompactionTask(inputs []*ssTable, outputLevel int) *backgroundTask {
	var inBytes float64
	for _, t := range inputs {
		t.compacting = true
		inBytes += t.Bytes()
	}
	out := mergeTables(e.newTableID(), inputs, outputLevel, e.hw.RowBytes, e.hw.KeysPerBlock(), e.hw.ScaledKeySpace())
	// TTL expiry at merge time: cells whose lifetime has passed become
	// tombstones ("expired data is evicted like deleted data"), then
	// follow the normal tombstone-eviction rules below. Keys are
	// extracted and sorted first so eviction never follows map order.
	if len(out.expiry) > 0 {
		expired := e.expiredScratch[:0]
		for k, exp := range out.expiry {
			if exp <= e.clock {
				expired = append(expired, k)
			}
		}
		slices.Sort(expired)
		for _, k := range expired {
			delete(out.expiry, k)
			out.setTombstone(k)
			e.m.ExpiredCells++
		}
		e.expiredScratch = expired[:0]
	}
	// Tombstone eviction (Section 2.2.1): a delete marker can disappear
	// once no table outside the merge may still hold an older version.
	// Merge fan-in is small (maxThreshold-bounded), so membership in the
	// input set is a linear scan rather than a per-task map.
	if len(out.tombs) > 0 {
		var evicted uint64
		for k := range out.tombs {
			shadowed := false
			for _, other := range e.tables.tables {
				if !tablesContain(inputs, other.id) && other.Contains(k) {
					shadowed = true
					break
				}
			}
			if !shadowed {
				out.dropCell(k)
				evicted++
			}
		}
		if evicted > 0 {
			out.rebuild(e.hw.ScaledKeySpace())
			e.m.TombstonesEvicted += evicted
		}
	}
	disk := inBytes + out.Bytes()
	return &backgroundTask{
		kind:        taskCompaction,
		inputs:      inputs,
		output:      out,
		outputLevel: outputLevel,
		diskBytes:   disk,
		remaining:   disk,
		cpuSeconds:  e.model.MergeCPUSecondsPerByte * disk,
		startedAt:   e.clock,
	}
}

func (e *Engine) enqueueTasks(tasks []*backgroundTask) {
	e.compQ = append(e.compQ, tasks...)
}

// tablesContain reports whether id belongs to one of the tables.
func tablesContain(tables []*ssTable, id uint64) bool {
	for _, t := range tables {
		if t.id == id {
			return true
		}
	}
	return false
}

// closeEpoch converts the epoch's accumulated demand into elapsed
// virtual time and advances background work by that much.
//
//rafiki:hot
func (e *Engine) closeEpoch() {
	acc := &e.ep
	if acc.ops == 0 {
		*acc = epochAcc{}
		return
	}
	hw, model, p := &e.hw, &e.model, &e.p

	writeShare := float64(acc.writes) / float64(acc.ops)
	perByte := hw.DiskSecondsPerByte()
	seek := hw.SeekMicros * 1e-6

	// Foreground disk demand: commit-log appends are sequential; read
	// misses pay a seek plus a block transfer, overlapped across
	// spindles/queue depth.
	commitDisk := acc.commitBytes * perByte * model.CommitLogWriteAmp
	readDisk := float64(acc.readMissBlocks) * (seek + model.MissTransferBytes*perByte) / model.ReadOverlap
	// Configured compactor threads poll and seek whenever merges are
	// pending, fragmenting the foreground access pattern even when the
	// queue is shorter than the thread count.
	compactorLoad := 0.0
	if len(e.compQ) > 0 {
		compactorLoad = math.Max(0, p.concurrentCompactors-2)
	}
	interference := 1 + model.InterferenceCoeff*e.bgDiskBusyFrac +
		model.CompactorInterferenceCoeff*compactorLoad
	// A degraded disk (fault injection) stretches every foreground byte.
	commitDisk *= e.diskTax
	readDisk *= e.diskTax
	tDisk := (commitDisk + readDisk) * interference

	// CPU: background merge work eats cores; oversubscribed thread
	// pools add a quadratic contention penalty.
	activeComp := math.Min(p.concurrentCompactors, float64(len(e.compQ)))
	activeFlush := math.Min(p.flushWriters, float64(len(e.flushQ)))
	threads := p.concurrentWrites*writeShare + p.concurrentReads*(1-writeShare) + activeComp + activeFlush
	over := threads/(float64(hw.Cores)*model.ThreadsPerCore) - 1
	contention := 1.0
	if over > 0 {
		contention += model.ContentionCoeff * over * over
	}
	cpuAvail := float64(hw.Cores) * (1 - math.Min(e.bgCPUFrac, 0.6)) / e.cpuTax
	tCPU := (acc.writeCPU + acc.readCPU) / cpuAvail

	// Write path: wall time per write divided over useful writer
	// threads. Background CPU load shrinks how many threads help.
	tWritePath := 0.0
	if acc.writes > 0 {
		wall := (model.WriteCPUSeconds + model.WritePathWaitSeconds) * e.cpuTax
		maxUseful := float64(hw.Cores) * wall / (model.WriteCPUSeconds * (1 + 2*e.bgCPUFrac))
		effW := math.Min(p.concurrentWrites, maxUseful)
		if effW < 1 {
			effW = 1
		}
		tWritePath = float64(acc.writes) * wall / effW
	}

	// Oversubscribed thread pools thrash schedulers and caches; the
	// contention penalty inflates the whole epoch, whichever resource
	// binds.
	dt := math.Max(tDisk, math.Max(tCPU, tWritePath)) * contention
	if debugEpochs {
		//lint:allow hotalloc debug-only branch behind the debugEpochs build knob; off in every benchmark
		fmt.Printf("epoch ops=%d tDisk=%.1fus tCPU=%.1fus tW=%.1fus inter=%.2f bgBusy=%.2f bgCPU=%.2f cont=%.2f wCPU=%.1f rCPU=%.1f miss=%d\n",
			acc.ops, tDisk/float64(acc.ops)*1e6, tCPU/float64(acc.ops)*1e6, tWritePath/float64(acc.ops)*1e6,
			interference, e.bgDiskBusyFrac, e.bgCPUFrac, contention,
			acc.writeCPU/float64(acc.ops)*1e6, acc.readCPU/float64(acc.ops)*1e6, acc.readMissBlocks)
	}

	// Commit-log fsyncs: every sync period costs a seek.
	if acc.writes > 0 && p.commitlogSyncPeriodMs > 0 {
		period := p.commitlogSyncPeriodMs / 1000
		dt += (dt / period) * seek * 0.5
		// Segment recycling: smaller segments roll over more often.
		segBytes := hw.ScaledBytes(p.commitlogSegmentMB)
		if segBytes > 0 {
			dt += acc.commitBytes / segBytes * seek * 0.25
		}
	}

	// Compaction-debt backpressure: once the pending merge backlog
	// exceeds the debt limit, writes are throttled proportionally.
	if acc.writes > 0 {
		var backlog float64
		for _, task := range e.compQ {
			backlog += task.remaining
		}
		if over := backlog/model.DebtLimitBytes - 1; over > 0 {
			if over > 1.5 {
				over = 1.5
			}
			stall := float64(acc.writes) * model.DebtStallSecondsPerWrite * over
			dt += stall
			acc.stallSeconds += stall
		}
	}

	// Heap/GC pressure: oversized file caches and huge memtables churn
	// the heap, inflating everything.
	heapFactor := 1.0
	if excess := (p.fileCacheMB - 512) / 1536; excess > 0 {
		heapFactor += model.HeapFileCacheCoeff * excess
	}
	if excess := (p.memtableCleanup - 0.25) / 0.35; excess > 0 {
		heapFactor += model.HeapMemtableCoeff * excess
	}
	if p.rowCacheMB > 0 {
		heapFactor += model.HeapRowCacheCoeff * p.rowCacheMB / 2048
	}
	dt *= heapFactor

	dt += acc.stallSeconds
	e.m.StallSeconds += acc.stallSeconds

	// Measurement jitter.
	if model.NoiseSigma > 0 {
		dt *= math.Exp(e.rng.NormFloat64() * model.NoiseSigma)
	}
	if e.throughputFactor != nil {
		f := e.throughputFactor(dt)
		if f > 0 {
			dt *= f
		}
	}

	e.clock += dt
	e.m.VirtualSeconds += dt
	rate := float64(acc.ops) / dt
	*acc = epochAcc{} // the epoch is accounted; what follows starts the next
	if !e.dropRates {
		e.rates.add(rate)
	}
	e.m.Epochs++
	e.o.epochTput.Observe(rate)
	// Little's law over the closed-loop client pool: the epoch's mean
	// operation latency is clients/throughput.
	if model.ClientConcurrency > 0 {
		e.o.epochLat.Observe(model.ClientConcurrency / rate)
	}
	e.o.clock.Set(e.clock)
	e.o.sstables.Set(float64(e.tables.Len()))

	foreUtil := math.Min(1, (commitDisk+readDisk)/dt)
	e.advanceBackground(dt, foreUtil) //lint:allow hotalloc epoch close runs once per epochOps operations; compaction bookkeeping amortizes away
}

// advanceBackground spends dt seconds of background capacity on flush
// and compaction queues, completing tasks and re-planning.
func (e *Engine) advanceBackground(dt, foreUtil float64) {
	hw, model, p := &e.hw, &e.model, &e.p

	bgShare := 1 - 0.75*foreUtil
	if bgShare < 0.15 {
		bgShare = 0.15
	}
	// A stalled disk slows background merges as much as foreground I/O.
	bgRate := hw.DiskBandwidthMBps * 1024 * 1024 * bgShare / e.diskTax

	var processed float64
	var cpuSpent float64

	// Flushes drain first (they gate the write path).
	flushRate := math.Min(bgRate, p.flushWriters*model.FlushRateMBps*1024*1024)
	budget := flushRate * dt
	for budget > 0 && len(e.flushQ) > 0 {
		t := e.flushQ[0]
		use := math.Min(budget, t.remaining)
		t.remaining -= use
		budget -= use
		processed += use
		cpuSpent += t.cpuSeconds * use / t.diskBytes
		if t.remaining > 1e-9 {
			break
		}
		e.flushQ = e.flushQ[1:]
		e.o.reg.Record(obs.Span{
			Name: "nosql.flush", Start: t.startedAt, End: e.clock, Unit: "vsec",
			Attrs: map[string]float64{"bytes": t.diskBytes},
		})
	}

	// Compaction: capped by concurrent compactors, the configured
	// throughput throttle, and leftover disk share.
	compRate := math.Min(
		p.concurrentCompactors*model.CompactorRateMBps,
		p.compactionThroughput,
	) * 1024 * 1024
	compRate = math.Min(compRate, bgRate)
	budget = compRate * dt
	var completed bool
	// The budget is shared round-robin over the first CC tasks, as CC
	// concurrent compactor threads would: one huge merge cannot starve
	// the small ones behind it.
	for budget > 1e-9 && len(e.compQ) > 0 {
		lanes := int(p.concurrentCompactors)
		if lanes < 1 {
			lanes = 1
		}
		if lanes > len(e.compQ) {
			lanes = len(e.compQ)
		}
		slice := budget / float64(lanes)
		var spent float64
		kept := e.compQ[:0]
		for i, t := range e.compQ {
			if i < lanes {
				use := math.Min(slice, t.remaining)
				t.remaining -= use
				spent += use
				processed += use
				cpuSpent += t.cpuSeconds * use / t.diskBytes
				if t.remaining <= 1e-9 {
					e.completeCompaction(t)
					completed = true
					continue
				}
			}
			kept = append(kept, t)
		}
		clear(e.compQ[len(kept):]) // a finished task still names its input tables
		e.compQ = kept
		budget -= spent
		if spent <= 1e-12 {
			break
		}
	}
	if completed {
		e.enqueueTasks(e.strategy.Plan(e))
	}

	e.bgDiskBusyFrac = math.Min(1, processed*hw.DiskSecondsPerByte()/dt/bgShare)
	e.bgCPUFrac = math.Min(0.9, cpuSpent/(dt*float64(hw.Cores)))
}

// completeCompaction publishes a finished merge: inputs disappear (and
// their cached blocks with them), the output becomes live.
func (e *Engine) completeCompaction(t *backgroundTask) {
	for _, in := range t.inputs {
		e.fileCache.InvalidateTable(in.id)
	}
	e.tables.RemoveTables(t.inputs)
	e.tables.Add(t.output)
	if e.tables.Len() > e.m.MaxSSTables {
		e.m.MaxSSTables = e.tables.Len()
	}
	e.m.Compactions++
	e.m.CompactionBytes += t.diskBytes
	e.o.reg.Record(obs.Span{
		Name: "nosql.compaction", Start: t.startedAt, End: e.clock, Unit: "vsec",
		Attrs: map[string]float64{
			"bytes":  t.diskBytes,
			"inputs": float64(len(t.inputs)),
			"level":  float64(t.outputLevel),
		},
	})
}

// Restart simulates a crash-and-restart of the server process: all
// in-memory state (memtable, file and row caches) is lost, the commit
// log's unflushed records are replayed into a fresh memtable, and the
// startup plus replay time is charged to the virtual clock. Durability
// comes from the commit log: no acknowledged write disappears.
func (e *Engine) Restart() {
	records := e.log.Replay()

	// RAM state is gone.
	e.mem = newMemtable(e.hw.RowBytes)
	e.fileCache.Resize(0)
	e.rowCache.Resize(0)
	// Re-establish configured capacities on the now-cold caches.
	fileBlocks := int(e.hw.ScaledBytes(e.p.fileCacheMB) / e.model.CacheBlockBytes)
	e.fileCache.Resize(fileBlocks)
	const partitionRows = 8
	rowEntries := int(e.hw.ScaledBytes(e.p.rowCacheMB) / float64(partitionRows*e.hw.RowBytes))
	e.rowCache.Resize(rowEntries)

	// Replay: sequential read of the commit log plus re-inserts.
	replayBytes := float64(len(records) * e.hw.RowBytes)
	replaySeconds := replayBytes*e.hw.DiskSecondsPerByte() +
		float64(len(records))*e.model.WriteCPUSeconds/float64(e.hw.Cores)
	for _, rec := range records {
		if rec.tombstone() {
			e.mem.Tombstone(rec.key)
		} else {
			e.mem.Insert(rec.key, rec.expiry, float64(e.hw.RowBytes))
		}
	}

	downtime := e.model.ReconfigDowntimeSeconds + replaySeconds
	e.clock += downtime
	e.m.VirtualSeconds += downtime
	e.m.Restarts++
	e.m.ReplayedRecords += uint64(len(records))
}

// SetDegradation installs straggler multipliers on the node's cost
// model: diskTax stretches every foreground and background disk byte,
// cpuTax every CPU second. Values below 1 are clamped to 1 (healthy);
// the fault-injection layer uses this to model failing disks and
// noisy-neighbour CPU theft without changing the engine's structure.
func (e *Engine) SetDegradation(diskTax, cpuTax float64) {
	if diskTax < 1 {
		diskTax = 1
	}
	if cpuTax < 1 {
		cpuTax = 1
	}
	e.diskTax = diskTax
	e.cpuTax = cpuTax
}

// Degradation returns the current straggler multipliers (1,1 = healthy).
func (e *Engine) Degradation() (diskTax, cpuTax float64) {
	return e.diskTax, e.cpuTax
}

// CorruptLogTail tears the newest fraction of the commit log's
// unflushed records — a torn/corrupt tail that crash recovery cannot
// replay. The loss only surfaces at the next Restart, exactly like a
// real partially-synced segment. It returns the number of records lost.
func (e *Engine) CorruptLogTail(fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	pending := e.log.PendingRecords()
	n := int(math.Ceil(fraction * float64(pending)))
	dropped := e.log.DropTail(n)
	e.m.CorruptedLogRecords += uint64(dropped)
	return dropped
}

// Delete applies one delete operation: a tombstone is written through
// the commit log and memtable exactly like a write; compaction
// eventually evicts it along with the shadowed versions.
//
//rafiki:hot
func (e *Engine) Delete(key uint64) {
	e.ep.writes++
	e.ep.ops++
	depth := 1 + e.model.MemtableDepthCoeff*math.Log2(float64(e.mem.Len()+2))
	e.ep.writeCPU += e.model.WriteCPUSeconds * depth
	e.ep.commitBytes += float64(e.hw.RowBytes) / 8
	e.log.Append(key, true, 0, float64(e.hw.RowBytes)/8)
	e.mem.Tombstone(key)
	e.m.Deletes++

	if e.rowCache.capacity > 0 {
		e.rowCache.Remove(blockID{table: key})
	}
	flushThreshold := e.p.memtableCleanup * e.hw.ScaledBytes(e.p.memHeapMB+e.p.memOffheapMB)
	if e.mem.Bytes() >= flushThreshold {
		e.flush(false) //lint:allow hotalloc flush runs once per full memtable; its sstable build amortizes over thousands of writes
	} else if e.log.Bytes() >= e.hw.ScaledBytes(e.p.commitlogTotalMB) {
		e.flush(true) //lint:allow hotalloc log-pressure flush is a rare backpressure branch, not the steady write path
	}
	if e.ep.ops >= e.epochOps {
		e.closeEpoch()
	}
}

// Lookup performs a read and additionally reports whether a live
// (non-deleted) version of key exists after merging the memtable and
// every table's newest cell.
//
//rafiki:hot
func (e *Engine) Lookup(key uint64) bool {
	alive := e.resolve(key)
	e.Read(key)
	return alive
}

// Alive reports whether a live (non-deleted) version of key exists. It
// charges no virtual time: repair machinery streams data in bulk rather
// than issuing point reads, and the cluster's repair path accounts its
// write work on the receiving node.
//
//rafiki:hot
func (e *Engine) Alive(key uint64) bool { return e.resolve(key) }

// HasCell reports whether any version of key — live or tombstone — is
// present in the memtable or any SSTable, without charging time.
//
//rafiki:hot
func (e *Engine) HasCell(key uint64) bool {
	if e.mem.Contains(key) {
		return true
	}
	for _, t := range e.tables.tables {
		if t.Contains(key) {
			return true
		}
	}
	return false
}

// resolve returns whether the newest cell for key is live: not a
// tombstone and not past its TTL expiry.
//
//rafiki:hot
func (e *Engine) resolve(key uint64) bool {
	if c, ok := e.mem.Cell(key); ok {
		return !c.tomb && !cellExpired(c.expiry, e.clock)
	}
	var newest *ssTable
	for _, t := range e.tables.tables {
		if t.Contains(key) && (newest == nil || t.seq > newest.seq) {
			newest = t
		}
	}
	if newest == nil || newest.IsTombstone(key) {
		return false
	}
	return !cellExpired(newest.ExpiryOf(key), e.clock)
}

// cellExpired reports whether a cell with the given expiry (0 = none)
// is past its TTL at virtual time now.
//
//rafiki:hot
func cellExpired(expiry, now float64) bool {
	return expiry > 0 && expiry <= now
}

// CompactAll schedules a major compaction: every idle SSTable is merged
// into one (the nodetool-compact operation operators run to reset
// read amplification before a read-heavy phase). The merge runs through
// the normal background machinery and competes for the same disk.
func (e *Engine) CompactAll() {
	var idle []*ssTable
	for _, t := range e.tables.tables {
		if !t.compacting {
			idle = append(idle, t)
		}
	}
	if len(idle) < 2 {
		return
	}
	e.enqueueTasks([]*backgroundTask{e.newCompactionTask(idle, 0)})
}

// DrainBackground runs the background machinery for the given virtual
// duration with no foreground load — an idle period in which flushes
// and compactions catch up. Time is charged to the clock.
func (e *Engine) DrainBackground(seconds float64) {
	if seconds <= 0 {
		return
	}
	const step = 0.05
	remaining := seconds
	for remaining > 0 {
		dt := step
		if remaining < dt {
			dt = remaining
		}
		// Clock advances before the background step so task-completion
		// spans end at the time the work actually finished.
		e.clock += dt
		e.m.VirtualSeconds += dt
		e.advanceBackground(dt, 0)
		remaining -= dt
	}
}
