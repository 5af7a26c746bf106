package frontdoor_test

import (
	"bytes"
	"runtime"
	"testing"
	"weak"

	"rafiki/internal/check"
	"rafiki/internal/cluster"
	"rafiki/internal/config"
	"rafiki/internal/frontdoor"
	"rafiki/internal/golden"
	"rafiki/internal/obs"
)

// newServingCluster builds the cluster the front door serves from:
// per-op epochs (so every replica leg's service time is its own),
// quorum reads and writes (so session guarantees hold across replica
// failures), and the resilience stack scaled to the calibrated op cost.
func newServingCluster(t *testing.T, seed int64, reg *obs.Registry) *cluster.Cluster {
	t.Helper()
	c, err := frontdoor.NewOverloadCluster(seed, reg)
	if err != nil {
		t.Fatal(err)
	}
	perOp := calibrate(t, seed)
	res := cluster.DefaultResilienceOptions().ScaledTo(perOp)
	res.BreakerFailures = 5
	res.BreakerCooldown = 200 * perOp
	res.RetryBudgetFrac = 0.2
	if err := c.SetResilience(res); err != nil {
		t.Fatal(err)
	}
	return c
}

// calibrate is the front door's mean per-request latency on a healthy
// cluster identical to the serving one.
func calibrate(t *testing.T, seed int64) float64 {
	t.Helper()
	perOp, err := frontdoor.CalibrateOverload(seed)
	if err != nil {
		t.Fatal(err)
	}
	return perOp
}

// steadyOpts builds a modest steady-state run: total offered load well
// under the concurrency the cluster serves.
func steadyOpts(t *testing.T, seed int64, perOp float64, reg *obs.Registry) frontdoor.Options {
	t.Helper()
	capacity := 8 / perOp // Concurrency / perOp requests per vsec
	return frontdoor.Options{
		Seed:        seed,
		Horizon:     2000 * perOp,
		Concurrency: 8,
		QueueCap:    256,
		Classes: []frontdoor.TenantClass{{
			Name:          "steady",
			Tenants:       40,
			Arrival:       frontdoor.Poisson,
			RatePerTenant: 0.4 * capacity / 40,
			ReadRatio:     0.6,
		}},
		Obs:           reg,
		RecordHistory: true,
	}
}

func TestFrontDoorValidation(t *testing.T) {
	c := newServingCluster(t, 3, nil)
	good := frontdoor.Options{
		Horizon: 1,
		Classes: []frontdoor.TenantClass{{Name: "a", Tenants: 1, Arrival: frontdoor.Poisson, RatePerTenant: 1}},
	}
	if _, err := frontdoor.New(nil, good); err == nil {
		t.Error("nil cluster accepted")
	}
	bad := []func(*frontdoor.Options){
		func(o *frontdoor.Options) { o.Horizon = 0 },
		func(o *frontdoor.Options) { o.Classes = nil },
		func(o *frontdoor.Options) { o.Classes[0].Name = "" },
		func(o *frontdoor.Options) { o.Classes[0].Tenants = 0 },
		func(o *frontdoor.Options) { o.Classes[0].RatePerTenant = 0 },
		func(o *frontdoor.Options) { o.Classes[0].ReadRatio = 2 },
		func(o *frontdoor.Options) { o.Classes[0].Arrival = 0 },
		func(o *frontdoor.Options) { o.Classes[0].Arrival = frontdoor.OnOff }, // no dwells
		func(o *frontdoor.Options) { o.SLOWindow = -1 },
	}
	for i, mutate := range bad {
		o := good
		o.Classes = []frontdoor.TenantClass{good.Classes[0]}
		mutate(&o)
		if _, err := frontdoor.New(c, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	fd, err := frontdoor.New(c, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestFrontDoorAccountingIdentities(t *testing.T) {
	const seed = 17
	perOp := calibrate(t, seed)
	reg := obs.NewRegistry()
	c := newServingCluster(t, seed, reg)
	opts := steadyOpts(t, seed, perOp, reg)
	fd, err := frontdoor.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 || res.Completed == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if got := res.Admitted + res.ShedRateLimited + res.ShedQueueFull; got != res.Arrivals {
		t.Errorf("admitted+shed = %d, arrivals = %d", got, res.Arrivals)
	}
	if got := res.Completed + res.ShedDeadline; got != res.Admitted {
		t.Errorf("completed+deadline-shed = %d, admitted = %d", got, res.Admitted)
	}
	// Class totals reconcile with the run totals.
	var classArr, classDone uint64
	for _, cr := range res.Classes {
		classArr += cr.Arrivals
		classDone += cr.Completed
	}
	if classArr != res.Arrivals || classDone != res.Completed {
		t.Errorf("class totals %d/%d, run totals %d/%d", classArr, classDone, res.Arrivals, res.Completed)
	}
	// A steady run under capacity completes nearly everything.
	if res.Completed < res.Arrivals*9/10 {
		t.Errorf("steady run completed %d of %d", res.Completed, res.Arrivals)
	}
	if res.Classes[0].P99 <= 0 {
		t.Error("no class p99 recorded")
	}
}

func TestFrontDoorDeterminism(t *testing.T) {
	const seed = 29
	perOp := calibrate(t, seed)
	run := func() (*frontdoor.Result, []byte) {
		reg := obs.NewRegistry()
		c := newServingCluster(t, seed, reg)
		opts := steadyOpts(t, seed, perOp, reg)
		// Overload one greedy tenant so the shed set is non-trivial.
		opts.Classes = append(opts.Classes, frontdoor.TenantClass{
			Name:          "greedy",
			Tenants:       4,
			Arrival:       frontdoor.Poisson,
			RatePerTenant: 2 / perOp,
			ReadRatio:     0.5,
			RateLimit:     0.05 / perOp,
		})
		fd, err := frontdoor.New(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fd.Run()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, snap
	}
	a, snapA := run()
	b, snapB := run()
	if a.ShedDigest != b.ShedDigest {
		t.Errorf("shed digests differ across identical runs: %x vs %x", a.ShedDigest, b.ShedDigest)
	}
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed || a.ShedRateLimited != b.ShedRateLimited {
		t.Errorf("counters differ across identical runs: %+v vs %+v", a, b)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Error("obs snapshots not byte-identical across identical runs")
	}
	if a.ShedRateLimited == 0 {
		t.Error("greedy class was never rate-limited (determinism check is vacuous)")
	}
}

func TestFrontDoorOverloadShedsBoundedly(t *testing.T) {
	const seed = 31
	perOp := calibrate(t, seed)
	reg := obs.NewRegistry()
	c := newServingCluster(t, seed, reg)
	capacity := 8 / perOp
	opts := frontdoor.Options{
		Seed:        seed,
		Horizon:     2000 * perOp,
		Concurrency: 8,
		QueueCap:    64,
		Classes: []frontdoor.TenantClass{{
			Name:          "flood",
			Tenants:       60,
			Arrival:       frontdoor.Poisson,
			RatePerTenant: 3 * capacity / 60, // 3x the cluster's capacity
			ReadRatio:     0.5,
		}},
		Obs: reg,
	}
	fd, err := frontdoor.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedQueueFull == 0 {
		t.Error("3x overload never hit queue backpressure")
	}
	if res.MaxQueueDepth > opts.QueueCap {
		t.Errorf("queue depth %d exceeded cap %d", res.MaxQueueDepth, opts.QueueCap)
	}
	if res.MaxInFlight > opts.Concurrency {
		t.Errorf("in-flight %d exceeded concurrency %d", res.MaxInFlight, opts.Concurrency)
	}
	if got := res.Admitted + res.ShedRateLimited + res.ShedQueueFull; got != res.Arrivals {
		t.Errorf("admitted+shed = %d, arrivals = %d", got, res.Arrivals)
	}
}

// TestOverloadObsGolden: one overload seed — a flood at three times
// capacity with deadlines, a rate-limited greedy class and SLO windows,
// so every shed reason and both window counters move — pins the registry
// snapshot it leaves, and the ledger's partitions hold.
func TestOverloadObsGolden(t *testing.T) {
	const seed = 37
	perOp := calibrate(t, seed)
	reg := obs.NewRegistry()
	c := newServingCluster(t, seed, reg)
	capacity := 8 / perOp
	fd, err := frontdoor.New(c, frontdoor.Options{
		Seed:        seed,
		Horizon:     1500 * perOp,
		Concurrency: 8,
		QueueCap:    64,
		Classes: []frontdoor.TenantClass{{
			Name: "flood", Tenants: 60, Arrival: frontdoor.Poisson,
			RatePerTenant: 3 * capacity / 60, ReadRatio: 0.5, Deadline: 6 * perOp,
		}, {
			Name: "greedy", Tenants: 4, Arrival: frontdoor.Poisson,
			RatePerTenant: 2 / perOp, ReadRatio: 0.5, RateLimit: 0.05 / perOp,
		}},
		SLOWindow: 100 * perOp,
		SLOP99:    7 * perOp,
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/obs_overload.json", snap)
	if res.ShedRateLimited == 0 || res.ShedQueueFull == 0 || res.ShedDeadline == 0 ||
		res.SLOViolations == 0 || res.SLOViolations == len(res.Windows) {
		t.Errorf("run did not exercise every exported counter: %+v", res)
	}
	if got := res.Admitted + res.ShedRateLimited + res.ShedQueueFull; got != res.Arrivals {
		t.Errorf("admitted+shed = %d, arrivals = %d", got, res.Arrivals)
	}
	if got := res.Completed + res.ShedDeadline; got != res.Admitted {
		t.Errorf("completed+deadline-shed = %d, admitted = %d", got, res.Admitted)
	}
	if res.SLOWindows != uint64(len(res.Windows)) {
		t.Errorf("SLOWindows = %d, %d windows closed", res.SLOWindows, len(res.Windows))
	}
}

// TestExportReleasesRun: a registry that outlives a front door and the
// Result it returned pins neither — the ledger it holds keeps its
// counters and lets the run's history, windows and class rows go.
func TestExportReleasesRun(t *testing.T) {
	const seed = 37
	perOp := calibrate(t, seed)
	reg := obs.NewRegistry()
	run := func() (weak.Pointer[frontdoor.FrontDoor], weak.Pointer[frontdoor.Result], weak.Pointer[check.Op], uint64) {
		fd, err := frontdoor.New(newServingCluster(t, seed, nil), steadyOpts(t, seed, perOp, reg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fd.Run()
		if err != nil || len(res.History) == 0 {
			t.Fatalf("run recorded %d history ops, err %v", len(res.History), err)
		}
		return weak.Make(fd), weak.Make(res), weak.Make(&res.History[0]), res.Completed
	}
	fd, res, hist, completed := run()
	runtime.GC()
	if fd.Value() != nil || res.Value() != nil || hist.Value() != nil {
		t.Errorf("still reachable while only the registry lives: front door %t, result %t, history %t",
			fd.Value() != nil, res.Value() != nil, hist.Value() != nil)
	}
	if got := reg.Snapshot().Counters["frontdoor.completed"]; got != completed || got == 0 {
		t.Errorf("frontdoor.completed = %d after the run was dropped, want %d", got, completed)
	}
}

func TestFrontDoorDeadlineShedding(t *testing.T) {
	const seed = 37
	perOp := calibrate(t, seed)
	c := newServingCluster(t, seed, nil)
	capacity := 4 / perOp
	opts := frontdoor.Options{
		Seed:        seed,
		Horizon:     1500 * perOp,
		Concurrency: 4,
		QueueCap:    512,
		Classes: []frontdoor.TenantClass{{
			Name:          "urgent",
			Tenants:       30,
			Arrival:       frontdoor.Poisson,
			RatePerTenant: 2 * capacity / 30,
			ReadRatio:     0.5,
			Deadline:      10 * perOp, // overloaded queue blows this fast
		}},
	}
	fd, err := frontdoor.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedDeadline == 0 {
		t.Error("overloaded deadline class shed nothing at dispatch")
	}
	if got := res.Completed + res.ShedDeadline; got != res.Admitted {
		t.Errorf("completed+deadline-shed = %d, admitted = %d", got, res.Admitted)
	}
}

func TestFrontDoorSessionGuaranteesHealthy(t *testing.T) {
	const seed = 43
	perOp := calibrate(t, seed)
	c := newServingCluster(t, seed, nil)
	opts := steadyOpts(t, seed, perOp, nil)
	fd, err := frontdoor.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	if v := check.CheckReadYourWrites(res.History); len(v) != 0 {
		t.Errorf("read-your-writes violations: %v", v[0])
	}
	if v := check.CheckMonotonicReads(res.History); len(v) != 0 {
		t.Errorf("monotonic-reads violations: %v", v[0])
	}
}

func TestFrontDoorSLOWindows(t *testing.T) {
	const seed = 47
	perOp := calibrate(t, seed)
	c := newServingCluster(t, seed, nil)
	opts := steadyOpts(t, seed, perOp, nil)
	opts.SLOWindow = 200 * perOp
	opts.SLOP99 = 1e-12 // everything violates: exercises the counter
	var seen int
	opts.OnWindow = func(w frontdoor.WindowStat) { seen++ }
	fd, err := frontdoor.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no SLO windows emitted")
	}
	if seen != len(res.Windows) {
		t.Errorf("OnWindow saw %d windows, result has %d", seen, len(res.Windows))
	}
	if res.SLOViolations != len(res.Windows) {
		t.Errorf("violations = %d, want every one of %d windows", res.SLOViolations, len(res.Windows))
	}
	var done int
	for i, w := range res.Windows {
		done += w.Completed
		if w.P50 <= 0 || w.P99 < w.P50 || w.P999 < w.P99 {
			t.Errorf("window %d quantiles out of order: %+v", i, w)
		}
		if i > 0 && w.Index <= res.Windows[i-1].Index {
			t.Errorf("window indices not increasing at %d", i)
		}
	}
	if done != int(res.Completed) {
		t.Errorf("windows cover %d completions, run had %d", done, res.Completed)
	}
}

func TestFrontDoorBurstyClassBackpressure(t *testing.T) {
	// ON-OFF tenants concentrate the same mean load into bursts: the
	// queue's high-water mark must exceed the steady class's.
	const seed = 53
	perOp := calibrate(t, seed)
	depth := func(kind frontdoor.ArrivalKind) int {
		c := newServingCluster(t, seed, nil)
		capacity := 8 / perOp
		tc := frontdoor.TenantClass{
			Name:          "load",
			Tenants:       40,
			Arrival:       kind,
			RatePerTenant: 0.7 * capacity / 40,
			ReadRatio:     0.5,
		}
		if kind == frontdoor.OnOff {
			// Same mean rate, delivered in 4x-intense bursts a quarter
			// of the time.
			tc.RatePerTenant *= 4
			tc.OnMean = 100 * perOp
			tc.OffMean = 300 * perOp
		}
		fd, err := frontdoor.New(c, frontdoor.Options{
			Seed:        seed,
			Horizon:     2000 * perOp,
			Concurrency: 8,
			QueueCap:    4096,
			Classes:     []frontdoor.TenantClass{tc},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fd.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatalf("%v run completed nothing", kind)
		}
		return res.MaxQueueDepth
	}
	steady := depth(frontdoor.Poisson)
	bursty := depth(frontdoor.OnOff)
	if bursty <= steady {
		t.Errorf("bursty high-water %d not above steady %d", bursty, steady)
	}
}

// TestServeAllocGuard pins the whole request path's allocation budget:
// a healthy open-loop run on the serving shape (16 nodes, RF 3, QUORUM,
// 50/50 reads and writes) stays under 0.2 heap allocations per request
// from Run's first arrival to its last completion — the event heaps,
// the latency series and the SLO windows grow amortized, the admission
// queue and the coordinator below it not at all. The same run took
// about 19.5 per request when every message boxed and every queue
// operation reallocated.
func TestServeAllocGuard(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		Nodes:             16,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              7,
		EpochOps:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(1)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(cluster.ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	fd, err := frontdoor.New(c, frontdoor.Options{
		Seed:        7,
		Horizon:     0.25,
		Concurrency: 16,
		QueueCap:    65_536,
		Keys:        16,
		SLOWindow:   0.05,
		Classes: []frontdoor.TenantClass{{
			Name: "steady", Tenants: 500, Arrival: frontdoor.Poisson,
			RatePerTenant: 240_000.0 / 500, ReadRatio: 0.5,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := fd.Run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 50_000 || res.FailedOps != 0 {
		t.Fatalf("run is not the healthy steady state the guard measures: %d completed, %d failed", res.Completed, res.FailedOps)
	}
	if perReq := float64(m1.Mallocs-m0.Mallocs) / float64(res.Arrivals); perReq > 0.2 {
		t.Fatalf("a request allocates %.3f times from arrival to completion, want <= 0.2", perReq)
	}
}

// TestResultLedgerNames pins the counter names Result exports to the
// nine the front door's obs twin published.
func TestResultLedgerNames(t *testing.T) {
	golden.Names(t, new(frontdoor.Result),
		"frontdoor.admitted", "frontdoor.arrivals", "frontdoor.completed", "frontdoor.failed_ops",
		"frontdoor.shed_deadline", "frontdoor.shed_queue_full", "frontdoor.shed_rate_limited",
		"frontdoor.slo_window_violations", "frontdoor.slo_windows")
}
