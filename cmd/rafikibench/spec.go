package main

// This file is the benchmark's table of contents: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root is generated from
// these tables (`rafikibench list -json`) and a test holds the two
// together.

// Axis says what a number is measured on. Host numbers are wall time
// (or allocations) the Go process spends simulating: noisy, bounded in
// percent; the three end-to-end wall times are in nominal seconds (see
// pace.go). Sim numbers are virtual time or throughput the modelled
// datastore reports, and counts are event totals; both repeat exactly
// for a seed, so a change in one is a deliberate model change.
const (
	axisHost  = "host"
	axisSim   = "sim"
	axisCount = "count"
)

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	Axis   string
	Doc    string
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"tune_dynamic", "closed loop, the paper's path: identify, collect, train, then a trace replayed through the controller; only here do core/anova/nn/linalg/ga do the work, and cluster/netsim/frontdoor are idle"},
	{"serve_steady", "open loop, 240k req/virtual-s on a healthy 16-node QUORUM cluster: cluster+netsim+frontdoor carry most host work, compaction barely runs and no resilience branch fires"},
	{"serve_chaos", "the same stack overloaded through partition, loss, straggler, surge, join and decommission: timeouts, breakers, hints, speculative reads, shedding and rebalance, which serve_steady never executes"},
	{"engine_crud_scan", "closed loop, one client on one engine: reads, updates, inserts, deletes, TTL expiry and scans while compaction is active; a scan or compaction change shows here, every layer above is idle"},
}

// endToEnd lists the metrics every workload reports from an untraced
// run. The contract this benchmark is written to requires every
// workload to report every end-to-end metric, so each name has one
// definition per workload (README.md, "End-to-end metrics"); an "op"
// is the unit the workload's path serves: a recommendation
// (tune_dynamic), a request (serve_*), an engine operation
// (engine_crud_scan).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, axisHost, "median time of one set-up, in nominal seconds: build, preload, warm-up; for tune_dynamic trace synthesis and held-out collection"},
	{"rep_wall_s", "s", "lower", 0.25, axisHost, "median time of one repetition's timed call, in nominal seconds: Tuner.Prepare, FrontDoor.Run, or the workload.Run chunks"},
	{"host_ops_per_s", "1/s", "higher", 0.25, axisHost, "ops per nominal host second, median over timed chunks: 1000/median Recommend ms (tune), completions per SLO-window group (serve), ops per workload.Run chunk (engine)"},
	{"allocs_per_op", "allocs", "lower", 0.08, axisHost, "runtime.MemStats.Mallocs delta over the timed ops divided by those ops"},
	{"live_heap_mb", "MB", "lower", 0.25, axisHost, "HeapAlloc after a forced GC at the end of the timed phase, system under test still referenced"},
	{"sim_ops_per_s", "1/s", "higher", 0.03, axisSim, "virtual throughput: trace ops over virtual seconds under the controller (tune), OK completions over makespan (serve), ops over virtual seconds (engine)"},
	{"sim_p50_us", "us", "lower", 0.03, axisSim, "median virtual latency: steady-class arrival to completion (serve), epoch mean latencies (engine, tuned trace windows)"},
	{"sim_p99_us", "us", "lower", 0.10, axisSim, "99th percentile of the same virtual latencies"},
	{"sim_max_rate_krps", "k/s", "higher", 0.05, axisSim, "highest virtual rate sustained within the latency limit: the rate ladder on serve_steady, the achieved OK rate elsewhere"},
	{"sim_goodput_frac", "ratio", "higher", 0.03, axisSim, "share of offered work that met its target: steady-class OK completions over arrivals (serve), ops without error (engine), 1 - held-out MAPE (tune)"},
}

// perLayer lists the metrics of single layers, reported by a traced
// run. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// workload: the closed-loop driver (engine_crud_scan).
	{"workload.gen_ns", "ns", "lower", 0, axisHost, "driver plus key generator per op against a null Store"},
	{"workload.read_ops", "count", "higher", 0, axisCount, "reads issued"},
	{"workload.update_ops", "count", "higher", 0, axisCount, "updates issued"},
	{"workload.scan_ops", "count", "higher", 0, axisCount, "scans issued"},
	{"workload.self_share", "ratio", "lower", 0, axisHost, "share of workload.Run wall time not inside a Store call"},

	// nosql: the storage engine (engine_crud_scan; counters also from serve_*).
	{"nosql.read_ns_p50", "ns", "lower", 0, axisHost, "Engine.Read wall time, median"},
	{"nosql.read_ns_p99", "ns", "lower", 0, axisHost, "Engine.Read wall time, p99"},
	{"nosql.update_ns_p50", "ns", "lower", 0, axisHost, "Engine.Write/WriteTTL on an existing key, median"},
	{"nosql.update_ns_p99", "ns", "lower", 0, axisHost, "Engine.Write/WriteTTL on an existing key, p99"},
	{"nosql.scan_ns_p50", "ns", "lower", 0, axisHost, "Engine.Scan (64 rows) wall time, median"},
	{"nosql.scan_ns_p99", "ns", "lower", 0, axisHost, "Engine.Scan wall time, p99"},
	{"nosql.insert_ns_p50", "ns", "lower", 0, axisHost, "Engine.Write of a new key, median"},
	{"nosql.delete_ns_p50", "ns", "lower", 0, axisHost, "Engine.Delete wall time, median"},
	{"nosql.hot_read_ns", "ns", "lower", 0, axisHost, "Engine.Read on a warm quiescent engine (the BENCH_engine.json figure)"},
	{"nosql.point_share", "ratio", "lower", 0, axisHost, "share of workload.Run wall time inside point operations"},
	{"nosql.scan_share", "ratio", "lower", 0, axisHost, "share of workload.Run wall time inside scans"},
	{"nosql.preload_ms", "ms", "lower", 0, axisHost, "nosql.New plus Preload(3), median over set-ups"},
	{"nosql.flushes", "count", "lower", 0, axisCount, "memtable flushes in the timed phase"},
	{"nosql.forced_flushes", "count", "lower", 0, axisCount, "flushes forced by commit-log exhaustion"},
	{"nosql.compactions", "count", "lower", 0, axisCount, "compaction tasks completed"},
	{"nosql.compaction_mb", "MB", "lower", 0, axisSim, "compaction disk traffic"},
	{"nosql.stall_s", "s", "lower", 0, axisSim, "virtual seconds writes spent blocked behind flush backlog"},
	{"nosql.sstables_max", "count", "lower", 0, axisCount, "peak live SSTable count"},
	{"nosql.file_cache_hit_rate", "ratio", "higher", 0, axisSim, "block fetches served by the file cache"},
	{"nosql.row_cache_hits", "count", "higher", 0, axisCount, "reads served from the row cache"},
	{"nosql.memtable_hits", "count", "higher", 0, axisCount, "reads answered by the memtable"},
	{"nosql.read_amp", "ratio", "lower", 0, axisSim, "disk block reads per read"},
	{"nosql.bloom_fp_rate", "ratio", "lower", 0, axisSim, "bloom false positives per bloom check"},
	{"nosql.scan_cells_per_row", "ratio", "lower", 0, axisSim, "cell versions examined per live row a scan returned"},
	{"nosql.tombstones_evicted", "count", "higher", 0, axisCount, "tombstones garbage-collected by compaction"},
	{"nosql.expired_cells", "count", "higher", 0, axisCount, "TTL'd cells compaction converted to tombstones"},

	// ring: token ownership (serve_*).
	{"ring.owners_ns", "ns", "lower", 0, axisHost, "Ring.OwnersAt per request key"},
	{"ring.moved_frac", "ratio", "lower", 0, axisSim, "token circle fraction scheduled to move by topology changes"},

	// netsim: the message network (serve_*).
	{"netsim.send_ns", "ns", "lower", 0, axisHost, "Network.Send with an echo handler, per message"},
	{"netsim.allocs_per_send", "allocs", "lower", 0, axisHost, "heap allocations per Send"},
	{"netsim.msgs_per_req", "ratio", "lower", 0, axisSim, "messages offered to the network per front-door completion"},
	{"netsim.sent", "count", "lower", 0, axisCount, "messages offered"},
	{"netsim.delivered", "count", "higher", 0, axisCount, "copies delivered"},
	{"netsim.dropped", "count", "lower", 0, axisCount, "messages lost to link drop probability"},
	{"netsim.partition_drops", "count", "lower", 0, axisCount, "messages swallowed by a partition"},
	{"netsim.duplicated", "count", "lower", 0, axisCount, "extra copies created"},
	{"netsim.reordered", "count", "lower", 0, axisCount, "per-link FIFO inversions"},

	// cluster: the coordinator (serve_*).
	{"cluster.read_one_ns", "ns", "lower", 0, axisHost, "Cluster.ReadOp at ONE, 16 nodes, median"},
	{"cluster.read_quorum_ns", "ns", "lower", 0, axisHost, "Cluster.ReadOp at QUORUM, 16 nodes, median"},
	{"cluster.read_all_ns", "ns", "lower", 0, axisHost, "Cluster.ReadOp at ALL, 16 nodes, median"},
	{"cluster.write_one_ns", "ns", "lower", 0, axisHost, "Cluster.WriteOp at ONE, 16 nodes, median"},
	{"cluster.write_quorum_ns", "ns", "lower", 0, axisHost, "Cluster.WriteOp at QUORUM, 16 nodes, median"},
	{"cluster.write_all_ns", "ns", "lower", 0, axisHost, "Cluster.WriteOp at ALL, 16 nodes, median"},
	{"cluster.scan_quorum_ns", "ns", "lower", 0, axisHost, "Cluster.ScanOp (64 rows) at QUORUM, median"},
	{"cluster.quorum_ns_n3", "ns", "lower", 0, axisHost, "QUORUM read/write mix per op on 3 nodes"},
	{"cluster.quorum_ns_n64", "ns", "lower", 0, axisHost, "QUORUM read/write mix per op on 64 nodes"},
	{"cluster.allocs_per_op", "allocs", "lower", 0, axisHost, "heap allocations per QUORUM op, 16 nodes"},
	{"cluster.bytes_per_op", "B", "lower", 0, axisHost, "heap bytes per QUORUM op, 16 nodes"},
	{"cluster.replica_ns", "ns", "lower", 0, axisHost, "the request's replica engine ops driven directly, per request"},
	{"cluster.own_ns", "ns", "lower", 0, axisHost, "QUORUM op minus replica, ring and netsim shares"},
	{"cluster.own_ratio", "ratio", "lower", 0, axisHost, "QUORUM op over its replica engine ops (ROADMAP target <= 1.5)"},
	{"cluster.clock_ns", "ns", "lower", 0, axisHost, "Cluster.Clock per call, 16 nodes"},
	{"cluster.workclock_ns", "ns", "lower", 0, axisHost, "Cluster.WorkClock per call, 16 nodes"},
	{"cluster.add_node_ms", "ms", "lower", 0, axisHost, "Cluster.AddNode plus draining the rebalance"},
	{"cluster.retries", "count", "lower", 0, axisCount, "backoff-retried attempts"},
	{"cluster.timeouts", "count", "lower", 0, axisCount, "ops abandoned on a straggler"},
	{"cluster.rpc_lost_timeouts", "count", "lower", 0, axisCount, "exchanges the network lost"},
	{"cluster.breaker_opens", "count", "lower", 0, axisCount, "circuit-breaker open transitions"},
	{"cluster.breaker_rejections", "count", "lower", 0, axisCount, "attempts an open breaker rejected"},
	{"cluster.retries_suppressed", "count", "lower", 0, axisCount, "retries the budget skipped"},
	{"cluster.speculative_reads", "count", "lower", 0, axisCount, "reads routed around a straggler"},
	{"cluster.hints_stored", "count", "lower", 0, axisCount, "writes buffered for an unreachable replica"},
	{"cluster.hints_replayed", "count", "higher", 0, axisCount, "hints delivered on recovery"},
	{"cluster.hints_dropped", "count", "lower", 0, axisCount, "hints lost to the buffer cap"},
	{"cluster.read_repairs", "count", "lower", 0, axisCount, "stale replicas converged on the read path"},
	{"cluster.unavailable_ops", "count", "lower", 0, axisCount, "reads, writes and scans that could not reach enough replicas"},
	{"cluster.unacked_writes", "count", "lower", 0, axisCount, "writes acknowledged by fewer replicas than required"},
	{"cluster.ranges_moved", "count", "lower", 0, axisCount, "token ranges scheduled to change owners"},
	{"cluster.streams_severed", "count", "lower", 0, axisCount, "rebalance streams interrupted and restarted"},
	{"cluster.streamed_cells", "count", "lower", 0, axisCount, "key states delivered over rebalance streams"},
	{"cluster.forwarded_writes", "count", "lower", 0, axisCount, "live writes forwarded to a catching-up destination"},

	// frontdoor: admission and dispatch (serve_*).
	{"frontdoor.req_ns", "ns", "lower", 0, axisHost, "FrontDoor.Run wall time per arrival"},
	{"frontdoor.own_ns", "ns", "lower", 0, axisHost, "req_ns minus the cluster op it dispatches"},
	{"frontdoor.allocs_per_req", "allocs", "lower", 0, axisHost, "heap allocations per arrival"},
	{"frontdoor.queue_ns", "ns", "lower", 0, axisHost, "AdmissionQueue Offer plus Pop"},
	{"frontdoor.arrivals", "count", "higher", 0, axisCount, "requests offered"},
	{"frontdoor.admitted", "count", "higher", 0, axisCount, "requests queued"},
	{"frontdoor.completed", "count", "higher", 0, axisCount, "requests executed"},
	{"frontdoor.failed_ops", "count", "lower", 0, axisCount, "executed requests the coordinator failed"},
	{"frontdoor.shed_rate_limited", "count", "lower", 0, axisCount, "refused by a token bucket"},
	{"frontdoor.shed_queue_full", "count", "lower", 0, axisCount, "refused by the full queue"},
	{"frontdoor.shed_deadline", "count", "lower", 0, axisCount, "dropped at dispatch past their deadline"},
	{"frontdoor.max_queue_depth", "count", "lower", 0, axisCount, "admission queue high-water mark"},
	{"frontdoor.max_in_flight", "count", "lower", 0, axisCount, "dispatch high-water mark"},
	{"frontdoor.slo_windows", "count", "higher", 0, axisCount, "closed SLO windows"},
	{"frontdoor.slo_violations", "count", "lower", 0, axisCount, "windows over the p99 ceiling"},

	// check: the consistency verifier (serve_*).
	{"check.ryw_ms", "ms", "lower", 0, axisHost, "CheckReadYourWrites on the verification history (at most 20k ops)"},
	{"check.violations", "count", "lower", 0, axisCount, "read-your-writes plus monotonic-read violations in the verification history"},

	// core: the tuning pipeline (tune_dynamic).
	{"core.identify_s", "s", "lower", 0, axisHost, "IdentifyKeyParameters wall time"},
	{"core.collect_s", "s", "lower", 0, axisHost, "Collect wall time"},
	{"core.train_s", "s", "lower", 0, axisHost, "feature encoding plus nn.Fit wall time"},
	{"core.stage_gap_pct", "%", "lower", 0, axisHost, "share of the prepare span its three stage spans do not cover"},
	{"core.sample_ms_p50", "ms", "lower", 0, axisHost, "Collector.Sample wall time, median"},
	{"core.sample_ms_p95", "ms", "lower", 0, axisHost, "Collector.Sample wall time, p95"},
	{"core.samples", "count", "lower", 0, axisCount, "benchmark samples the offline stages spent"},
	{"core.dropped", "count", "lower", 0, axisCount, "samples the collect stage dropped"},
	{"core.recommend_ms_p50", "ms", "lower", 0, axisHost, "Tuner.Recommend wall time over retunes and the sweep, median"},
	{"core.recommend_ms_p90", "ms", "lower", 0, axisHost, "Tuner.Recommend wall time, p90"},
	{"core.predict_ns", "ns", "lower", 0, axisHost, "Surrogate.Predict per call"},
	{"core.observe_ms_p50", "ms", "lower", 0, axisHost, "Controller.Observe wall time when it retunes, median"},
	{"core.retunes", "count", "lower", 0, axisCount, "reconfigurations the controller applied"},
	{"core.tuned_gain_pct", "%", "higher", 0, axisSim, "trace throughput under the controller over the static default, minus 1"},
	{"core.pred_err_pct", "%", "lower", 0, axisSim, "MAPE of Surrogate.Predict on the held-out set"},

	// anova, nn, linalg, ga, par (tune_dynamic).
	{"anova.rank_us", "us", "lower", 0, axisHost, "anova.Rank on the identify stage's sweeps"},
	{"anova.key_params", "count", "higher", 0, axisCount, "key parameters selected; must be the paper's five"},
	{"nn.fit_s", "s", "lower", 0, axisHost, "nn.Fit wall time"},
	{"nn.fit_allocs", "allocs", "lower", 0, axisHost, "heap allocations of nn.Fit"},
	{"nn.members_kept", "count", "higher", 0, axisCount, "ensemble members surviving the prune"},
	{"nn.predict_ns", "ns", "lower", 0, axisHost, "Model.Predict per call"},
	{"nn.predict_batch_row_ns", "ns", "lower", 0, axisHost, "Model.PredictBatchInto per row"},
	{"linalg.ata_ns", "ns", "lower", 0, axisHost, "AtA on a samples x weights Jacobian of the surrogate net"},
	{"linalg.solve_spd_ns", "ns", "lower", 0, axisHost, "Solver.SolveSPD on the damped Gram matrix"},
	{"ga.search_ms", "ms", "lower", 0, axisHost, "Surrogate.Optimize wall time, median"},
	{"ga.evals", "count", "lower", 0, axisCount, "surrogate evaluations per search (paper: about 3350)"},
	{"ga.generations", "count", "lower", 0, axisCount, "generations per search"},
	{"ga.allocs_per_search", "allocs", "lower", 0, axisHost, "heap allocations per search"},
	{"par.workers", "count", "higher", 0, axisCount, "worker bound of the parallel stages"},

	// obs: the instrumentation layer (engine_crud_scan).
	{"obs.enabled_overhead_pct", "%", "lower", 0, axisHost, "engine_crud_scan chunks with a registry over the same chunks without"},
	{"obs.snapshot_ms", "ms", "lower", 0, axisHost, "Registry.Snapshot wall time"},

	// process.
	{"trace.overhead_pct", "%", "lower", 0, axisHost, "spans recorded times the calibrated cost of one, over traced wall time"},
	{"gc.cycles", "count", "lower", 0, axisHost, "garbage collections during the traced phase"},
	{"gc.pause_ms", "ms", "lower", 0, axisHost, "stop-the-world pause total during the traced phase"},
	{"rss_peak_mb", "MB", "lower", 0, axisHost, "VmHWM of the process"},
}

// axisOf maps every metric name to its axis.
func axisOf() map[string]string {
	out := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			out[m.Name] = m.Axis
		}
	}
	return out
}

// defaultRunSeconds is BENCHMARK.json's run_seconds: how long one run
// measures. A repetition's work is fixed by literals so that sim
// numbers repeat; -seconds only decides how many repetitions fit, and
// never fewer than one.
const defaultRunSeconds = 12
