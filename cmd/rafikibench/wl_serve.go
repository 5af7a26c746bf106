package main

import (
	"fmt"
	"time"

	"rafiki/internal/check"
	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/fault"
	"rafiki/internal/frontdoor"
	"rafiki/internal/netsim"
	"rafiki/internal/par"
)

// Literals of the serving workloads, in virtual-time units. None is
// calibrated from the program at run time (the way
// frontdoor.calibrateOverload does), so a model change shows as a
// latency change instead of silently rescaling the load.
const (
	serveNodes       = 16
	serveRF          = 3
	serveConcurrency = 16
	serveLatencyUs   = 200.0 // latency limit on the steady class's p99, virtual µs

	// serve_steady: 2000 Poisson tenants, 240k req/virtual-s in total,
	// 50/50 read/write over 16 keys each (32k of 93750 keys).
	steadyTenants   = 2000
	steadyRate      = 240_000.0
	steadyKeys      = 16
	steadyQueueCap  = 65_536
	steadyHorizon   = 2.5
	steadyWindow    = 0.1 // SLO window = one timed chunk
	steadyVerifyHor = 0.08
	ladderHorizon   = 0.15

	// serve_chaos: frontdoor.OverloadScenario's shape at a literal
	// per-op cost instead of a calibrated one.
	chaosPerOp     = 25e-6
	chaosTenants   = 4000
	chaosKeys      = 4
	chaosHorizon   = 1.6
	chaosWindowGrp = 16 // SLO windows per timed chunk
	chaosVerifyHor = 0.04
	chaosNetBase   = 2e-6
	chaosNetJitter = 0.5
)

// ladderRates are the offered rates (k req/virtual-s) of serve_steady's
// rate ladder. 16 servers at about 30 virtual µs per request on a fresh
// cluster saturate near 530k, so the ladder brackets that with rungs
// far enough from it (500k passes, 575k queues) that no seed sits on
// the edge; a model change of about 6 % moves the answer one rung.
var ladderRates = []float64{450, 500, 575}

// serveCase is one serving workload's shape.
type serveCase struct {
	name    string
	chaos   bool
	horizon float64 // virtual seconds of arrivals, already scaled
	group   int     // SLO windows per timed chunk
}

func newServeCluster(seed int64, chaos bool, nodes int) (*cluster.Cluster, error) {
	opts := cluster.Options{
		Nodes: nodes, ReplicationFactor: serveRF, Space: config.Cassandra(), Seed: seed, EpochOps: 1,
	}
	if chaos {
		opts.NetBaseLatency, opts.NetJitter = chaosNetBase, chaosNetJitter
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	c.Preload(1)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		return nil, err
	}
	if err := c.SetWriteConsistency(cluster.ConsistencyQuorum); err != nil {
		return nil, err
	}
	if chaos {
		res := cluster.DefaultResilienceOptions()
		res.BackoffBase = chaosPerOp
		res.BackoffMax = 25 * chaosPerOp
		res.ExpectedOpSeconds = chaosPerOp
		res.OpTimeout = 20 * chaosPerOp // 0.5 ms
		res.BreakerFailures = 5
		res.BreakerCooldown = 200 * chaosPerOp // 5 ms
		res.RetryBudgetFrac = 0.2
		if err := c.SetResilience(res); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// serveOptions returns the front door's options for a run of horizon
// virtual seconds at rate req/virtual-s (steady only; chaos rates are
// fixed by its literals).
func serveOptions(seed int64, chaos bool, horizon, rate float64) frontdoor.Options {
	if !chaos {
		return frontdoor.Options{
			Seed: seed, Horizon: horizon, Concurrency: serveConcurrency, QueueCap: steadyQueueCap, Keys: steadyKeys,
			SLOWindow: steadyWindow,
			Classes: []frontdoor.TenantClass{{
				Name: "steady", Tenants: steadyTenants, Arrival: frontdoor.Poisson,
				RatePerTenant: rate / steadyTenants, ReadRatio: 0.5,
			}},
		}
	}
	capacity := serveConcurrency / chaosPerOp // 640k req/virtual-s
	steady, bursty := 8*chaosTenants/10, chaosTenants/10
	greedy := chaosTenants - steady - bursty
	deadline := 50 * chaosPerOp // 1.25 ms
	return frontdoor.Options{
		Seed: seed, Horizon: horizon, Concurrency: serveConcurrency, QueueCap: 30 * serveConcurrency, Keys: chaosKeys,
		SLOWindow: 100 * chaosPerOp, SLOP99: 80 * chaosPerOp, // 2.5 ms windows, 2 ms ceiling
		Classes: []frontdoor.TenantClass{
			{Name: "steady", Tenants: steady, Arrival: frontdoor.Poisson,
				RatePerTenant: 0.45 * capacity / float64(steady), ReadRatio: 0.6, Deadline: deadline},
			{Name: "bursty", Tenants: bursty, Arrival: frontdoor.OnOff,
				RatePerTenant: 4 * 0.15 * capacity / float64(bursty), OnMean: 100 * chaosPerOp, OffMean: 300 * chaosPerOp,
				ReadRatio: 0.5, Deadline: deadline},
			{Name: "greedy", Tenants: greedy, Arrival: frontdoor.Poisson,
				RatePerTenant: 0.8 * capacity / float64(greedy), ReadRatio: 0.5, Deadline: deadline,
				RateLimit: 0.1 * capacity / float64(greedy)},
		},
	}
}

// chaosSchedule places the faults as fractions of the horizon.
func chaosSchedule(h float64) (fault.Schedule, []frontdoor.Surge) {
	co := fault.CoordinatorEndpoint
	return fault.Schedule{
		{Kind: fault.Partition, Node: co, Peer: 0, At: 0.15 * h, Until: 0.30 * h},
		{Kind: fault.Partition, Node: 0, Peer: co, At: 0.15 * h, Until: 0.30 * h},
		{Kind: fault.NetFlaky, Node: co, Peer: 3, At: 0.05 * h, Until: 0.95 * h, DropProb: 0.01},
		{Kind: fault.AddNode, At: 0.35 * h},
		{Kind: fault.Slow, Node: 1, At: 0.50 * h, Until: 0.65 * h, DiskTax: 30, CPUTax: 4},
		{Kind: fault.DecommissionNode, Node: 5, At: 0.70 * h},
	}, []frontdoor.Surge{{At: 0.40 * h, Until: 0.60 * h, Factor: 2.5}}
}

// serveRun is what one front-door run produced.
type serveRun struct {
	res      *frontdoor.Result
	cl       *cluster.Cluster
	stats    cluster.Stats
	net      netsim.Stats
	wallNs   float64
	allocs   uint64
	chunkNs  []float64 // host ns of each timed chunk (group of SLO windows)
	chunkOps []float64 // completions in it
	stamps   []int64   // tracer time at each chunk end (traced runs)
}

// runFrontDoor builds nothing: it drives one FrontDoor.Run over cl,
// stamping host time whenever an SLO window closes. Those stamps cut
// the run into timed chunks without touching the code under test.
func runFrontDoor(cl *cluster.Cluster, opts frontdoor.Options, chaos bool, group int, tr *tracer, pace *pacer) (serveRun, error) {
	run := serveRun{cl: cl}
	var inj *fault.Injector
	var surges []frontdoor.Surge
	if chaos {
		var sched fault.Schedule
		sched, surges = chaosSchedule(opts.Horizon)
		var err error
		if inj, err = fault.NewInjector(cl, sched, opts.Seed^0x5EED); err != nil {
			return run, err
		}
		cl.SetFaultInjector(inj)
		opts.Injector = inj
	}
	var last time.Time
	var paced time.Duration
	windows, completed := 0, 0
	opts.OnWindow = func(w frontdoor.WindowStat) {
		windows++
		completed += w.Completed
		if windows%group != 0 {
			return
		}
		now := time.Now()
		run.chunkNs = append(run.chunkNs, float64(now.Sub(last).Nanoseconds()))
		run.chunkOps = append(run.chunkOps, float64(completed))
		if tr != nil {
			run.stamps = append(run.stamps, tr.now())
		}
		// The reference kernel runs inside FrontDoor.Run here; its time
		// is taken back out of the run's wall time below.
		paced += pace.tick(phaseRep)
		last, completed = time.Now(), 0
	}
	fd, err := frontdoor.New(cl, opts)
	if err != nil {
		return run, err
	}
	fd.SetSurges(surges)
	m0 := readMem()
	start := time.Now()
	last = start
	run.res, err = fd.Run()
	end := time.Now()
	run.wallNs = float64((end.Sub(start) - paced).Nanoseconds())
	if completed > 0 { // the windows after the last full group
		run.chunkNs = append(run.chunkNs, float64(end.Sub(last).Nanoseconds()))
		run.chunkOps = append(run.chunkOps, float64(completed))
	}
	run.allocs = readMem().mallocs - m0.mallocs
	if err != nil {
		return run, err
	}
	if inj != nil {
		inj.Finish()
		if err := inj.Err(); err != nil {
			return run, err
		}
		// Let the join and the decommission finish streaming.
		cl.DrainRebalance(1 << 20)
	}
	run.stats, run.net = cl.Stats(), cl.Net().Stats()
	return run, nil
}

// chunkRates returns completions per host second of each timed chunk.
func (s serveRun) chunkRates() []float64 {
	out := make([]float64, 0, len(s.chunkNs))
	for i, ns := range s.chunkNs {
		if ns > 0 && s.chunkOps[i] > 0 {
			out = append(out, s.chunkOps[i]/(ns/1e9))
		}
	}
	return out
}

// serveSim are the sim numbers and counts of one run, which must repeat
// exactly on every repetition.
type serveSim struct {
	ops, p50, p99, goodput, makespan float64
	digest                           uint64
	counts                           [9]uint64
}

func (s serveRun) sim() serveSim {
	r := s.res
	steady := r.Classes[0]
	out := serveSim{
		digest: r.ShedDigest, p50: steady.P50 * 1e6, p99: steady.P99 * 1e6, makespan: r.Makespan,
		counts: [9]uint64{r.Arrivals, r.Admitted, r.Completed, r.FailedOps, r.ShedRateLimited, r.ShedQueueFull,
			r.ShedDeadline, uint64(r.MaxQueueDepth), uint64(r.SLOViolations)},
	}
	if r.Makespan > 0 {
		out.ops = float64(r.Completed-r.FailedOps) / r.Makespan
	}
	if steady.Arrivals > 0 {
		out.goodput = float64(steady.Completed-steady.FailedOps) / float64(steady.Arrivals)
	}
	return out
}

func runServe(o runOpts, traced, chaos bool) (*runResult, error) {
	sc := serveCase{name: "serve_steady", horizon: steadyHorizon * o.scale, group: 1}
	if chaos {
		sc = serveCase{name: "serve_chaos", chaos: true, horizon: chaosHorizon * o.scale, group: chaosWindowGrp}
	}
	r := newRunResult(o, sc.name, traced)
	r.Literals = serveLiterals(sc)

	ts := startTrace(r, o.seed, 1<<20)
	tr := ts.tr

	var setups, repWalls, rates, allocsPerOp []float64
	var first, lastSim serveSim
	var lastRun serveRun
	pace := newPacer()
	timed := time.Duration(0)
	for rep := 0; o.moreReps(rep, timed, median(repWalls)); rep++ {
		start := time.Now()
		cl, err := newServeCluster(o.seed, chaos, serveNodes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		pace.tick(phaseSetup)
		inRun := pace // ticks at chunk ends, inside FrontDoor.Run
		var root int32
		if traced {
			root, inRun = tr.begin(0, "frontdoor.run", 0), nil // keep the spans free of kernel time
		}
		run, err := runFrontDoor(cl, serveOptions(o.seed, chaos, sc.horizon, steadyRate), chaos, sc.group, tr, inRun)
		if err != nil {
			return nil, err
		}
		if traced {
			tr.end(root)
			prev := tr.spans[root-1].Start
			for i, at := range run.stamps {
				tr.leaf(root, "frontdoor.windows", int64(i), prev, at)
				prev = at
			}
		}
		timed += time.Duration(run.wallNs)
		repWalls = append(repWalls, run.wallNs/1e9)
		rates = append(rates, run.chunkRates()...)
		allocsPerOp = append(allocsPerOp, float64(run.allocs)/float64(run.res.Arrivals))
		lastSim, lastRun = run.sim(), run
		if rep == 0 {
			first = lastSim
		}
		r.Reps++
		if traced {
			break
		}
	}
	for len(setups) < o.minSetups() {
		start := time.Now()
		if _, err := newServeCluster(o.seed, chaos, serveNodes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		pace.tick(phaseSetup)
	}
	pace.finish(r)

	res := lastRun.res
	r.Attempted = int64(res.Arrivals)
	r.Failed = int64(res.FailedOps + res.ShedRateLimited + res.ShedQueueFull + res.ShedDeadline)
	r.Facts["shed_digest_lo32"] = float64(res.ShedDigest & 0xffffffff)
	r.Facts["steady_class_completed"] = float64(res.Classes[0].Completed)
	r.Facts["makespan_virtual_s"] = res.Makespan
	r.check("reps_identical", first == lastSim, "rep 0 and rep %d differ in a sim number or count", r.Reps-1)
	verifyServe(r, sc, lastRun)
	rywMs, violations, err := verifySessions(r, o, sc)
	if err != nil {
		return nil, err
	}

	if !traced {
		maxRate := first.ops / 1e3
		if !chaos {
			if maxRate, err = rateLadder(r, o); err != nil {
				return nil, err
			}
		}
		r.setSeconds("setup_s", phaseSetup, setups)
		r.setSeconds("rep_wall_s", phaseRep, repWalls)
		r.setRates("host_ops_per_s", phaseRep, rates)
		r.setSamples("allocs_per_op", allocsPerOp)
		r.set("live_heap_mb", liveHeapMB())
		r.set("sim_ops_per_s", first.ops)
		r.set("sim_p50_us", first.p50)
		r.set("sim_p99_us", first.p99)
		r.set("sim_max_rate_krps", maxRate)
		r.set("sim_goodput_frac", first.goodput)
		r.Notes = append(r.Notes,
			fmt.Sprintf("sim_p50_us/sim_p99_us: exact quantiles over n=%d steady-class completions", res.Classes[0].Completed),
			"open loop in virtual time: the generator is part of the simulation, so its lateness is 0 by construction")
	} else {
		r.set("check.ryw_ms", rywMs)
		r.set("check.violations", float64(violations))
		if err := serveLayerMetrics(r, o, sc, tr, lastRun); err != nil {
			return nil, err
		}
		ts.finish(r)
	}
	// The cluster stays referenced until here so live_heap_mb sees it
	// and the front door's per-class latency lists.
	r.Facts["nodes_end"] = float64(lastRun.cl.Nodes())
	return r, nil
}

func serveLiterals(sc serveCase) map[string]any {
	lit := map[string]any{
		"nodes": serveNodes, "rf": serveRF, "read_cl": "QUORUM", "write_cl": "QUORUM", "epoch_ops": 1, "preload_versions": 1,
		"concurrency": serveConcurrency, "horizon_virtual_s": sc.horizon, "latency_limit_p99_us": serveLatencyUs,
		"loop": "open, virtual time, single-threaded run to completion",
	}
	if !sc.chaos {
		lit["tenants"], lit["rate_req_per_virtual_s"], lit["keys_per_tenant"] = steadyTenants, steadyRate, steadyKeys
		lit["queue_cap"], lit["read_ratio"], lit["network"] = steadyQueueCap, 0.5, "perfect"
		lit["ladder_rates_krps"], lit["ladder_horizon_virtual_s"] = ladderRates, ladderHorizon
		return lit
	}
	lit["per_op_virtual_s"], lit["tenants"], lit["keys_per_tenant"] = chaosPerOp, chaosTenants, chaosKeys
	lit["classes"] = "80% steady Poisson 0.45 cap rr .6 / 10% bursty ON-OFF 4x0.15 cap on 2.5ms off 7.5ms / 10% greedy 0.8 cap limited to 0.1 cap; cap = 640k req/s"
	lit["queue_cap"], lit["deadline_virtual_s"], lit["slo_p99_virtual_s"] = 30*serveConcurrency, 50*chaosPerOp, 80*chaosPerOp
	lit["op_timeout_virtual_s"], lit["breaker"], lit["retry_budget"] = 20*chaosPerOp, "5 failures / 5 ms cooldown", 0.2
	lit["net_base_latency_virtual_s"], lit["net_jitter"] = chaosNetBase, chaosNetJitter
	lit["schedule_fractions_of_horizon"] = "partition coordinator<->node0 .15-.30; flaky 1% coordinator->node3 .05-.95; add node .35; surge 2.5x .40-.60; slow node1 disk x30 cpu x4 .50-.65; decommission node5 .70"
	return lit
}

// verifyServe checks the front door's books and the workload's
// expectations.
func verifyServe(r *runResult, sc serveCase, run serveRun) {
	res := run.res
	r.check("arrivals_balance", res.Arrivals == res.Admitted+res.ShedRateLimited+res.ShedQueueFull,
		"arrivals %d != admitted %d + rate-limited %d + queue-full %d", res.Arrivals, res.Admitted, res.ShedRateLimited, res.ShedQueueFull)
	r.check("admitted_balance", res.Admitted == res.Completed+res.ShedDeadline,
		"admitted %d != completed %d + deadline-shed %d", res.Admitted, res.Completed, res.ShedDeadline)
	if !sc.chaos {
		r.check("nothing_failed_or_shed", r.Failed == 0, "%d requests failed or were shed on the healthy path", r.Failed)
		r.check("latency_limit", res.Classes[0].P99*1e6 <= serveLatencyUs || r.Scale < 1,
			"steady-class p99 %.1f virtual us over the %.0f us limit", res.Classes[0].P99*1e6, serveLatencyUs)
		return
	}
	r.check("rebalance_quiesced", run.cl.PendingRanges() == 0, "%d token ranges still pending", run.cl.PendingRanges())
	r.check("topology", run.cl.Nodes() == serveNodes+1 && len(run.cl.Members()) == serveNodes,
		"%d node slots, %d ring members; want %d and %d", run.cl.Nodes(), len(run.cl.Members()), serveNodes+1, serveNodes)
	if r.Scale >= 1 {
		r.check("overload_shed", res.ShedRateLimited > 0 && res.ShedDeadline+res.ShedQueueFull > 0, "the schedule is built to overload but shed nothing")
	}
}

// verifySessions is the separate short verification pass: the same
// stack with RecordHistory on, small enough (about 20k executed ops)
// for the quadratic session checkers. It returns how long
// CheckReadYourWrites took, in ms, and the violations found.
func verifySessions(r *runResult, o runOpts, sc serveCase) (float64, int, error) {
	horizon := steadyVerifyHor
	if sc.chaos {
		horizon = chaosVerifyHor
	}
	if sc.horizon < horizon {
		horizon = sc.horizon
	}
	cl, err := newServeCluster(o.seed, sc.chaos, serveNodes)
	if err != nil {
		return 0, 0, err
	}
	opts := serveOptions(par.DeriveSeed(o.seed, 7), sc.chaos, horizon, steadyRate)
	opts.RecordHistory = true
	run, err := runFrontDoor(cl, opts, sc.chaos, 1<<30, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	h := run.res.History
	if len(h) > 20_000 {
		h = h[:20_000]
	}
	start := time.Now()
	ryw := check.CheckReadYourWrites(h)
	rywMs := float64(time.Since(start).Nanoseconds()) / 1e6
	mono := check.CheckMonotonicReads(h)
	r.Facts["session_history_ops"] = float64(len(h))
	r.Facts["session_violations"] = float64(len(ryw) + len(mono))
	// serve_chaos allows two: at the commit that added this benchmark one
	// seed in forty (29) shows a client reading version 1798 of a key
	// after version 7105, when the join, the partition, the lossy link
	// and the straggler all overlap. The count is a fact, so it repeats
	// for a seed and a fix shows as a deliberate change.
	allowed := 0
	if sc.chaos {
		allowed = 2
	}
	r.check("session_guarantees", len(ryw)+len(mono) <= allowed && len(h) > 0,
		"%d read-your-writes and %d monotonic-read violations in a %d-op history (allowed %d)", len(ryw), len(mono), len(h), allowed)
	return rywMs, len(ryw) + len(mono), nil
}

// rateLadder runs serve_steady's front door at each ladder rate for a
// short horizon, one after another on one fresh cluster, and returns
// the highest rate (k req/virtual-s) that keeps the steady class's p99
// within the limit, sheds and fails nothing, and whose second half is
// not slower than its first (a growing queue shows as a growing median).
func rateLadder(r *runResult, o runOpts) (float64, error) {
	cl, err := newServeCluster(o.seed, false, serveNodes)
	if err != nil {
		return 0, err
	}
	horizon := ladderHorizon * o.scale
	if horizon < 0.01 {
		horizon = 0.01
	}
	best := 0.0
	for i, krps := range ladderRates {
		opts := serveOptions(par.DeriveSeed(o.seed, int64(500+i)), false, horizon, krps*1e3)
		opts.SLOWindow = horizon / 2
		fd, err := frontdoor.New(cl, opts)
		if err != nil {
			return 0, err
		}
		res, err := fd.Run()
		if err != nil {
			return 0, err
		}
		p99 := res.Classes[0].P99 * 1e6
		grew := len(res.Windows) >= 2 && res.Windows[1].P50 > 1.5*res.Windows[0].P50
		shed := res.ShedRateLimited + res.ShedQueueFull + res.ShedDeadline + res.FailedOps
		ok := p99 <= serveLatencyUs && shed == 0 && !grew
		r.Facts[fmt.Sprintf("ladder_%.0fk_p99_us", krps)] = p99
		r.Facts[fmt.Sprintf("ladder_%.0fk_max_queue", krps)] = float64(res.MaxQueueDepth)
		if ok && krps > best {
			best = krps
		}
	}
	r.check("ladder_resolves", best > 0, "no ladder rate met the %.0f us limit", serveLatencyUs)
	return best, nil
}

// clusterCounters fills the coordinator's and the network's count rows.
func clusterCounters(r *runResult, s cluster.Stats, n netsim.Stats, completed uint64) {
	for name, v := range map[string]uint64{
		"retries": s.Retries, "timeouts": s.Timeouts, "rpc_lost_timeouts": s.RPCLostTimeouts,
		"breaker_opens": s.BreakerOpens, "breaker_rejections": s.BreakerRejections, "retries_suppressed": s.RetriesSuppressed,
		"speculative_reads": s.SpeculativeReads, "hints_stored": s.HintsStored, "hints_replayed": s.HintsReplayed,
		"hints_dropped": s.HintsDropped, "read_repairs": s.ReadRepairs,
		"unavailable_ops": s.UnavailableReads + s.UnavailableWrites + s.UnavailableScans, "unacked_writes": s.UnackedWrites,
		"ranges_moved": s.RangesMoved, "streams_severed": s.StreamsSevered, "streamed_cells": s.StreamedCells,
		"forwarded_writes": s.ForwardedWrites,
	} {
		r.set("cluster."+name, float64(v))
	}
	for name, v := range map[string]uint64{
		"sent": n.Sent, "delivered": n.Delivered, "dropped": n.Dropped, "partition_drops": n.PartitionDrops,
		"duplicated": n.Duplicated, "reordered": n.Reordered,
	} {
		r.set("netsim."+name, float64(v))
	}
	if completed > 0 {
		r.set("netsim.msgs_per_req", float64(n.Sent)/float64(completed))
	}
}

func frontdoorCounters(r *runResult, res *frontdoor.Result) {
	for name, v := range map[string]uint64{
		"arrivals": res.Arrivals, "admitted": res.Admitted, "completed": res.Completed, "failed_ops": res.FailedOps,
		"shed_rate_limited": res.ShedRateLimited, "shed_queue_full": res.ShedQueueFull, "shed_deadline": res.ShedDeadline,
		"max_queue_depth": uint64(res.MaxQueueDepth), "max_in_flight": uint64(res.MaxInFlight),
		"slo_windows": uint64(len(res.Windows)), "slo_violations": uint64(res.SLOViolations),
	} {
		r.set("frontdoor."+name, float64(v))
	}
}
