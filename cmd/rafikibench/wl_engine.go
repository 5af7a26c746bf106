package main

import (
	"fmt"
	"sort"
	"time"

	"rafiki/internal/config"
	"rafiki/internal/nosql"
	"rafiki/internal/obs"
	"rafiki/internal/par"
	"rafiki/internal/workload"
)

// Literals of engine_crud_scan. Ops are issued as engineChunks
// workload.Run calls on one engine so that each chunk is timed on its
// own: the box's speed drifts by ±15 % over seconds, and a median over
// chunks rides that out where one 10 s total cannot.
const (
	enginePreload   = 3
	engineWarmOps   = 200_000
	engineOps       = 2_500_000
	engineChunks    = 25
	engineScanLen   = 64
	engineTTLFrac   = 0.1
	engineTTLSecs   = 30.0
	engineHotKeys   = 64
	engineHotReads  = 200_000
	engineObsChunks = 8 // per arm
	engineObsOps    = 50_000
)

var engineMix = workload.Mix{Read: .53, Update: .28, Insert: .10, Delete: .07, Scan: .02}

func engineSpec(seed int64, ops int) workload.Spec {
	return workload.Spec{
		Mix: engineMix, ScanLen: engineScanLen, Distribution: workload.DistZipfian,
		TTLFraction: engineTTLFrac, TTLSeconds: engineTTLSecs, Ops: ops, Seed: seed,
	}
}

// engineStreams are the seeds of one repetition's op streams: the
// warm-up and each timed chunk.
func engineWarmSeed(seed int64) int64         { return par.DeriveSeed(seed, 1) }
func engineChunkSeed(seed int64, i int) int64 { return par.DeriveSeed(seed, int64(100+i)) }

// newWarmEngine is one set-up: build, preload, warm-up. It returns the
// engine and how long New plus Preload took.
func newWarmEngine(seed int64, warmOps int, reg *obs.Registry) (*nosql.Engine, time.Duration, error) {
	start := time.Now()
	e, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: seed, Obs: reg})
	if err != nil {
		return nil, 0, err
	}
	e.Preload(enginePreload)
	preload := time.Since(start)
	if _, err := workload.Run(e, engineSpec(engineWarmSeed(seed), warmOps)); err != nil {
		return nil, 0, err
	}
	return e, preload, nil
}

// engineRep is what one repetition measured.
type engineRep struct {
	chunkNs   []float64 // wall ns of each workload.Run
	res       workload.Result
	simSecs   float64
	allocs    uint64
	latencies []float64 // epoch mean latencies of the timed phase, seconds
	metrics   nosql.Metrics
	base      nosql.Metrics // after warm-up
	keySpace  int
}

// addCounts adds one workload.Run's op counts to sum.
func addCounts(sum *workload.Result, res workload.Result) {
	sum.Reads += res.Reads
	sum.Writes += res.Writes
	sum.Updates += res.Updates
	sum.Inserts += res.Inserts
	sum.Deletes += res.Deletes
	sum.Scans += res.Scans
	sum.ScanRows += res.ScanRows
}

// runEngineChunks drives the timed chunks against store (the engine, or
// a tracing wrapper around it).
func runEngineChunks(e *nosql.Engine, store workload.Store, seed int64, chunkOps int, tr *tracer, parent int32, pace *pacer) (engineRep, error) {
	var rep engineRep
	rep.base = e.Metrics()
	rep.keySpace = e.KeySpace()
	baseEpochs := len(rep.base.EpochLatencies)
	m0 := readMem()
	pace.tick(phaseRep)
	for i := 0; i < engineChunks; i++ {
		spec := engineSpec(engineChunkSeed(seed, i), chunkOps)
		var id int32
		if tr != nil {
			id = tr.begin(parent, "workload.run", int64(i))
			store.(*tracedStore).parent = id
		}
		start := time.Now()
		res, err := workload.Run(store, spec)
		rep.chunkNs = append(rep.chunkNs, float64(time.Since(start).Nanoseconds()))
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return rep, err
		}
		pace.tick(phaseRep) // between chunks, outside every timed call
		rep.simSecs += res.Seconds
		addCounts(&rep.res, res)
	}
	rep.allocs = readMem().mallocs - m0.mallocs
	rep.metrics = e.Metrics()
	rep.latencies = append([]float64(nil), rep.metrics.EpochLatencies[baseEpochs:]...)
	return rep, nil
}

func runEngine(o runOpts, traced bool) (*runResult, error) {
	r := newRunResult(o, "engine_crud_scan", traced)
	warmOps := o.scaleInt(engineWarmOps, 2_000)
	chunkOps := o.scaleInt(engineOps, 5_000) / engineChunks
	ops := chunkOps * engineChunks
	r.Literals = map[string]any{
		"preload_versions": enginePreload, "warm_ops": warmOps, "ops_per_rep": ops, "chunks": engineChunks,
		"mix": engineMix, "scan_len": engineScanLen, "distribution": workload.DistZipfian,
		"ttl_fraction": engineTTLFrac, "ttl_virtual_s": engineTTLSecs, "loop": "closed, 1 client",
	}

	var setups, preloads, chunkRates, repWalls, allocsPerOp []float64
	var first, last engineRep
	var eng *nosql.Engine
	ts := startTrace(r, o.seed, ops)
	tr := ts.tr
	root := tr.begin(0, "engine_crud_scan.rep", 0)
	pace := newPacer()
	timed := time.Duration(0)
	for rep := 0; o.moreReps(rep, timed, median(repWalls)); rep++ {
		start := time.Now()
		e, preload, err := newWarmEngine(o.seed, warmOps, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		preloads = append(preloads, float64(preload.Nanoseconds())/1e6)
		pace.tick(phaseSetup)
		var store workload.Store = e
		if traced {
			store = &tracedStore{e: e, tr: tr, keySpace: uint64(e.KeySpace())}
		}
		got, err := runEngineChunks(e, store, o.seed, chunkOps, tr, root, pace)
		if err != nil {
			return nil, err
		}
		var wall float64
		for _, ns := range got.chunkNs {
			wall += ns
			chunkRates = append(chunkRates, float64(chunkOps)/(ns/1e9))
		}
		timed += time.Duration(wall)
		repWalls = append(repWalls, wall/1e9)
		allocsPerOp = append(allocsPerOp, float64(got.allocs)/float64(ops))
		if rep == 0 {
			first = got
		}
		last, eng = got, e
		r.Reps++
		if traced {
			break // one traced repetition carries every span
		}
	}
	tr.end(root)
	// Set-up is cheap next to a repetition, so it is always sampled
	// several times, whatever number of repetitions fitted.
	for len(setups) < o.minSetups() {
		start := time.Now()
		_, preload, err := newWarmEngine(o.seed, warmOps, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		preloads = append(preloads, float64(preload.Nanoseconds())/1e6)
		pace.tick(phaseSetup)
	}
	pace.finish(r)

	simOps := float64(ops) / first.simSecs
	r.Attempted = int64(ops) * int64(r.Reps)
	r.Facts["sim_seconds"] = first.simSecs
	r.Facts["scan_rows"] = float64(first.res.ScanRows)
	r.Facts["latency_epochs"] = float64(len(first.latencies))
	r.check("reps_identical", last.simSecs == first.simSecs && last.res == first.res,
		"rep 0 took %v virtual s, rep %d took %v", first.simSecs, r.Reps-1, last.simSecs)
	done := first.res.Reads + first.res.Writes + first.res.Scans
	r.check("ops_accounted", done == ops, "driver reported %d of %d ops", done, ops)
	if err := verifyEngineState(r, eng, o.seed, warmOps, chunkOps, first.res); err != nil {
		return nil, err
	}

	if !traced {
		r.setSeconds("setup_s", phaseSetup, setups)
		r.setSeconds("rep_wall_s", phaseRep, repWalls)
		r.setRates("host_ops_per_s", phaseRep, chunkRates)
		r.setSamples("allocs_per_op", allocsPerOp)
		r.set("live_heap_mb", liveHeapMB())
		r.set("sim_ops_per_s", simOps)
		r.set("sim_p50_us", quantile(first.latencies, 0.5)*1e6)
		r.set("sim_p99_us", quantile(first.latencies, 0.99)*1e6)
		r.set("sim_max_rate_krps", simOps/1e3)
		r.set("sim_goodput_frac", 1-float64(r.Failed)/float64(r.Attempted))
		r.Notes = append(r.Notes, fmt.Sprintf("sim_p50_us/sim_p99_us over n=%d epoch mean latencies (1024 ops each)", len(first.latencies)))
	} else {
		if err := engineLayerMetrics(r, o, tr, first, preloads, warmOps, chunkOps); err != nil {
			return nil, err
		}
		ts.finish(r)
	}
	// eng stays referenced until here so live_heap_mb sees it.
	r.Facts["sstables_end"] = float64(eng.Metrics().SSTables)
	return r, nil
}

// shadowStore replays the driver's op stream and remembers each key's
// last mutation, so that the engine's final state can be checked
// against it. It is also the null Store workload.gen_ns is timed on
// (with record off).
type shadowStore struct {
	keySpace int
	record   bool
	ticks    float64
	// last maps a key to its last mutation: 1 plain write, 2 TTL write,
	// 3 delete. Untouched keys are absent (preloaded, hence alive).
	last map[uint64]uint8
}

func (s *shadowStore) Read(uint64)          {}
func (s *shadowStore) FinishEpoch()         {}
func (s *shadowStore) KeySpace() int        { return s.keySpace }
func (s *shadowStore) Scan(uint64, int) int { return 0 }

// Clock advances on every call: workload.Run rejects a store on which a
// run consumed no virtual time.
func (s *shadowStore) Clock() float64 { s.ticks++; return s.ticks }
func (s *shadowStore) Write(key uint64) {
	if s.record {
		s.last[key] = 1
	}
}
func (s *shadowStore) WriteTTL(key uint64, _ float64) {
	if s.record {
		s.last[key] = 2
	}
}
func (s *shadowStore) Delete(key uint64) {
	if s.record {
		s.last[key] = 3
	}
}

// replayShadow runs the warm-up and the timed chunks against a shadow
// store and returns it with the summed driver result of the chunks.
func replayShadow(keySpace int, seed int64, warmOps, chunkOps int, record bool) (*shadowStore, workload.Result, time.Duration, error) {
	sh := &shadowStore{keySpace: keySpace, record: record, last: make(map[uint64]uint8)}
	var sum workload.Result
	if _, err := workload.Run(sh, engineSpec(engineWarmSeed(seed), warmOps)); err != nil {
		return nil, sum, 0, err
	}
	start := time.Now()
	for i := 0; i < engineChunks; i++ {
		res, err := workload.Run(sh, engineSpec(engineChunkSeed(seed, i), chunkOps))
		if err != nil {
			return nil, sum, 0, err
		}
		addCounts(&sum, res)
	}
	return sh, sum, time.Since(start), nil
}

// verifyEngineState checks Engine.Alive against the shadow for every
// key whose last mutation carries no TTL, plus a stride of untouched
// preloaded keys: at least 10k keys at full scale.
//
// At the commit that added this benchmark the engine resolves about
// 0.3 % of mutated keys to an older version once size-tiered compaction
// has merged tables that are not neighbours in flush order (the merged
// table takes the highest input seq, so a cell it carries from an old
// input outranks a newer cell in a table that was not part of the
// merge). The check therefore allows 1 %; the exact count is a fact, so
// it must repeat for a seed and a fix shows as a deliberate change.
func verifyEngineState(r *runResult, e *nosql.Engine, seed int64, warmOps, chunkOps int, engineRes workload.Result) error {
	sh, shadowRes, _, err := replayShadow(e.KeySpace(), seed, warmOps, chunkOps, true)
	if err != nil {
		return err
	}
	shadowRes.ScanRows = engineRes.ScanRows // the shadow holds no rows to scan
	r.check("driver_stream_repeats", shadowRes == engineRes, "shadow replay issued %d reads, %d writes, %d scans; the engine run %d, %d, %d",
		shadowRes.Reads, shadowRes.Writes, shadowRes.Scans, engineRes.Reads, engineRes.Writes, engineRes.Scans)
	checked, stale := 0, 0
	probe := func(key uint64, want bool) {
		checked++
		if e.Alive(key) != want {
			stale++
		}
	}
	// Map iteration order does not matter: every qualifying key is
	// probed and only counts leave this loop.
	for key, op := range sh.last {
		if op != 2 {
			probe(key, op == 1)
		}
	}
	for key := uint64(0); key < uint64(e.KeySpace()); key += 7 {
		if _, touched := sh.last[key]; !touched {
			probe(key, true)
		}
	}
	r.Facts["alive_keys_checked"] = float64(checked)
	r.Facts["alive_keys_stale"] = float64(stale)
	want := 10_000
	if r.Scale < 1 {
		want = 100
	}
	r.check("alive_matches_shadow", checked >= want && stale*100 <= checked,
		"%d of %d sampled non-TTL keys disagree with the shadow map (allowed 1 %%, need >= %d sampled)", stale, checked, want)
	return nil
}

// tracedStore spans every call the driver makes into the engine.
type tracedStore struct {
	e        *nosql.Engine
	tr       *tracer
	parent   int32
	keySpace uint64
	req      int64
}

func (s *tracedStore) span(name string, start int64) {
	s.tr.leaf(s.parent, name, s.req, start, s.tr.now())
	s.req++
}
func (s *tracedStore) writeName(key uint64) string {
	if key >= s.keySpace {
		return "nosql.insert"
	}
	return "nosql.update"
}
func (s *tracedStore) Read(key uint64) {
	t := s.tr.now()
	s.e.Read(key)
	s.span("nosql.read", t)
}
func (s *tracedStore) Write(key uint64) {
	t := s.tr.now()
	s.e.Write(key)
	s.span(s.writeName(key), t)
}
func (s *tracedStore) WriteTTL(key uint64, ttl float64) {
	t := s.tr.now()
	s.e.WriteTTL(key, ttl)
	s.span(s.writeName(key), t)
}
func (s *tracedStore) WriteSized(key uint64, n int) {
	t := s.tr.now()
	s.e.WriteSized(key, n)
	s.span(s.writeName(key), t)
}
func (s *tracedStore) Delete(key uint64) {
	t := s.tr.now()
	s.e.Delete(key)
	s.span("nosql.delete", t)
}
func (s *tracedStore) Scan(start uint64, limit int) int {
	t := s.tr.now()
	n := s.e.Scan(start, limit)
	s.span("nosql.scan", t)
	return n
}
func (s *tracedStore) FinishEpoch() {
	t := s.tr.now()
	s.e.FinishEpoch()
	s.span("nosql.finish_epoch", t)
}
func (s *tracedStore) Clock() float64 { return s.e.Clock() }
func (s *tracedStore) KeySpace() int  { return s.e.KeySpace() }

// nosqlCounters fills the engine's counter rows from a Metrics delta.
func nosqlCounters(r *runResult, m, base nosql.Metrics) {
	r.set("nosql.flushes", float64(m.Flushes-base.Flushes))
	r.set("nosql.forced_flushes", float64(m.ForcedFlushes-base.ForcedFlushes))
	r.set("nosql.compactions", float64(m.Compactions-base.Compactions))
	r.set("nosql.compaction_mb", (m.CompactionBytes-base.CompactionBytes)/1e6)
	r.set("nosql.stall_s", m.StallSeconds-base.StallSeconds)
	r.set("nosql.sstables_max", float64(m.MaxSSTables))
	r.set("nosql.row_cache_hits", float64(m.RowCacheHits-base.RowCacheHits))
	r.set("nosql.memtable_hits", float64(m.MemtableHits-base.MemtableHits))
	r.set("nosql.tombstones_evicted", float64(m.TombstonesEvicted-base.TombstonesEvicted))
	r.set("nosql.expired_cells", float64(m.ExpiredCells-base.ExpiredCells))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits := float64(m.FileCacheHits - base.FileCacheHits)
	disk := float64(m.DiskBlockReads - base.DiskBlockReads)
	r.set("nosql.file_cache_hit_rate", ratio(hits, hits+disk))
	r.set("nosql.read_amp", ratio(disk, float64(m.Reads-base.Reads)))
	r.set("nosql.bloom_fp_rate", ratio(float64(m.BloomFalsePositives-base.BloomFalsePositives), float64(m.BloomChecks-base.BloomChecks)))
	r.set("nosql.scan_cells_per_row", ratio(float64(m.ScanCells-base.ScanCells), float64(m.ScanRows-base.ScanRows)))
}

// engineLayerMetrics turns the traced repetition into the workload,
// nosql and obs rows.
func engineLayerMetrics(r *runResult, o runOpts, tr *tracer, rep engineRep, preloads []float64, warmOps, chunkOps int) error {
	for _, op := range []struct {
		name string
		tail bool
	}{{"read", true}, {"update", true}, {"scan", true}, {"insert", false}, {"delete", false}} {
		ds := tr.durations("nosql." + op.name)
		sort.Float64s(ds)
		r.set("nosql."+op.name+"_ns_p50", quantileSorted(ds, 0.5))
		if op.tail {
			r.set("nosql."+op.name+"_ns_p99", quantileSorted(ds, 0.99))
		}
		r.Facts["spans.nosql."+op.name] = float64(len(ds))
	}
	runNs := tr.total("workload.run")
	point := tr.total("nosql.read") + tr.total("nosql.update") + tr.total("nosql.insert") + tr.total("nosql.delete")
	scan := tr.total("nosql.scan")
	r.set("nosql.point_share", point/runNs)
	r.set("nosql.scan_share", scan/runNs)
	// The driver's own share is the self time of the workload.run
	// spans: their wall time minus what their children cover, less the
	// cost of recording those children, which lands outside them.
	self := -float64(tr.count) * spanCostNs()
	selfTimes := tr.selfTimes()
	for _, s := range tr.spans {
		if s.Name == "workload.run" {
			self += float64(selfTimes[s.ID])
		}
	}
	r.set("workload.self_share", self/runNs)
	r.check("spans_reconcile", self >= 0 && self <= runNs, "workload.run self time %.0f ns of %.0f ns", self, runNs)
	r.set("workload.read_ops", float64(rep.res.Reads))
	r.set("workload.update_ops", float64(rep.res.Updates))
	r.set("workload.scan_ops", float64(rep.res.Scans))
	r.set("nosql.preload_ms", median(preloads))
	nosqlCounters(r, rep.metrics, rep.base)

	// workload.gen_ns: the same op stream against a Store that does
	// nothing.
	_, _, genWall, err := replayShadow(rep.keySpace, o.seed, warmOps, chunkOps, false)
	if err != nil {
		return err
	}
	r.set("workload.gen_ns", float64(genWall.Nanoseconds())/float64(chunkOps*engineChunks))

	// nosql.hot_read_ns: reads of a few hot keys on a warm engine with
	// no writes in flight — the figure BENCH_engine.json tracks.
	hot, _, err := newWarmEngine(o.seed, warmOps, nil)
	if err != nil {
		return err
	}
	hotReads := o.scaleInt(engineHotReads, 5_000)
	for i := 0; i < hotReads/10; i++ {
		hot.Read(uint64(i % engineHotKeys))
	}
	start := time.Now()
	for i := 0; i < hotReads; i++ {
		hot.Read(uint64(i % engineHotKeys))
	}
	r.set("nosql.hot_read_ns", float64(time.Since(start).Nanoseconds())/float64(hotReads))

	return engineObsOverhead(r, o, warmOps)
}

// engineObsOverhead alternates chunks of the workload between an engine
// with an obs registry and one without, and compares the medians;
// alternating keeps the box's drift out of the ratio.
func engineObsOverhead(r *runResult, o runOpts, warmOps int) error {
	reg := obs.NewRegistry()
	with, _, err := newWarmEngine(o.seed, warmOps, reg)
	if err != nil {
		return err
	}
	without, _, err := newWarmEngine(o.seed, warmOps, nil)
	if err != nil {
		return err
	}
	ops := o.scaleInt(engineObsOps, 2_000)
	var on, off []float64
	for i := 0; i < engineObsChunks; i++ {
		spec := engineSpec(engineChunkSeed(o.seed, 1000+i), ops)
		for _, arm := range []struct {
			e   *nosql.Engine
			out *[]float64
		}{{with, &on}, {without, &off}} {
			start := time.Now()
			if _, err := workload.Run(arm.e, spec); err != nil {
				return err
			}
			*arm.out = append(*arm.out, float64(time.Since(start).Nanoseconds()))
		}
	}
	r.set("obs.enabled_overhead_pct", 100*(median(on)/median(off)-1))
	start := time.Now()
	snap := reg.Snapshot()
	r.set("obs.snapshot_ms", float64(time.Since(start).Nanoseconds())/1e6)
	r.Facts["obs.counters"] = float64(len(snap.Counters))
	return nil
}
