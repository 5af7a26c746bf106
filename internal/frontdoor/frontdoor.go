// Package frontdoor is the open-loop, multi-tenant serving layer in
// front of the cluster coordinator: thousands of simulated tenants with
// independent seeded arrival processes push requests at the cluster
// regardless of how fast it drains them — the regime where overload is
// possible and admission control earns its keep.
//
// The front door admits, queues, sheds, and dispatches in virtual time,
// single-threaded and fully deterministic under a seed: per-tenant
// token-bucket rate limits, a bounded admission queue (FIFO per tenant,
// round-robin across tenants), deadline-aware load shedding at
// dispatch, and per-class latency accounting. A request's service
// time is its cluster op's critical-path latency: the replica legs run
// side by side and the op completes at the ack or answer its
// consistency level waits for. A partitioned or straggling replica on
// that path — via the coordinator's timeouts and circuit breakers —
// surfaces here as queue growth and ultimately as deterministic
// shedding.
package frontdoor

import (
	"fmt"
	"math"
	"math/rand"

	"rafiki/internal/check"
	"rafiki/internal/cluster"
	"rafiki/internal/fault"
	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// TenantClass describes a population of identically-configured tenants.
type TenantClass struct {
	// Name labels the class in results and obs instruments.
	Name string
	// Tenants is the population size.
	Tenants int
	// Arrival selects the arrival process; RatePerTenant its intensity
	// (arrivals per virtual second, per tenant, while active).
	Arrival       ArrivalKind
	RatePerTenant float64
	// OnMean/OffMean are the mean ON and OFF dwell times for OnOff
	// tenants (ignored for Poisson).
	OnMean, OffMean float64
	// ReadRatio is the per-request probability of a read.
	ReadRatio float64
	// RateLimit caps each tenant's admitted rate via a token bucket of
	// depth max(1, RateLimit) (admissions per virtual second; 0 =
	// unlimited).
	RateLimit float64
	// Deadline is the relative deadline after arrival beyond which the
	// request is shed instead of dispatched (0 = none).
	Deadline float64
}

// Options configure a front-door run.
type Options struct {
	// Seed derives every tenant's arrival and workload stream.
	Seed int64
	// Horizon is how long (virtual seconds) arrivals keep coming;
	// in-flight work drains past it.
	Horizon float64
	// Concurrency is how many requests the cluster serves at once.
	Concurrency int
	// QueueCap bounds the admission queue.
	QueueCap int
	// Keys is each tenant's private key-pool size (default 4); small
	// pools make session guarantees (read-your-writes) observable.
	Keys int
	// Classes is the tenant population. Tenant ids are assigned in
	// class order.
	Classes []TenantClass
	// SLOWindow, when positive, slices completions into fixed windows
	// and reports per-window quantiles; SLOP99 is the p99 ceiling a
	// window must meet (0 = report only). OnWindow, when set, receives
	// each closed window — the hook the guarded tuner's SLO objective
	// feeds from.
	SLOWindow float64
	SLOP99    float64
	OnWindow  func(WindowStat)
	// Injector, when set, is advanced on the front door's timeline so
	// fault schedules (partitions, stragglers) overlap the open-loop
	// load. The caller owns Finish.
	Injector *fault.Injector
	// Obs, when set, receives the front door's instruments.
	Obs *obs.Registry
	// RecordHistory keeps a check.History of every executed request
	// for session-guarantee checking.
	RecordHistory bool
}

// latencyHi is the latency histograms' upper bound in virtual seconds;
// observations clamp.
const latencyHi = 1

// shed reasons, in ShedDigest and counter order.
const (
	shedRateLimited = iota + 1
	shedQueueFull
	shedDeadline
)

// WindowStat is one closed SLO window over completions.
type WindowStat struct {
	// Index is the window's ordinal (floor(completion/SLOWindow));
	// Start/End its bounds in virtual seconds.
	Index      int
	Start, End float64
	// Completed counts the window's completions; Throughput is
	// Completed/SLOWindow; ReadFrac the read share.
	Completed  int
	Throughput float64
	ReadFrac   float64
	// P50/P99/P999 are exact latency quantiles over the window.
	P50, P99, P999 float64
	// Violated reports P99 exceeded the SLOP99 ceiling (always false
	// when no ceiling is set).
	Violated bool
}

// ClassResult aggregates one tenant class's outcomes.
type ClassResult struct {
	Name                 string
	Tenants              int
	Arrivals, Admitted   uint64
	Completed, FailedOps uint64
	ShedRateLimited      uint64
	ShedQueueFull        uint64
	ShedDeadline         uint64
	// P50/P99/P999 are exact latency quantiles over the class's
	// completions (0 when none completed).
	P50, P99, P999 float64
}

// Result is one front-door run's outcome, and while the run lasts its
// one always-on ledger: a front door built with Options.Obs exports it,
// and a registry snapshot reports each `obs`-tagged field under that
// name (see obs.Registry.Export). Arrivals partition exactly,
//
//	Arrivals == Admitted + ShedRateLimited + ShedQueueFull
//
// and once the run has drained every admitted request has either
// completed or been shed at dispatch:
//
//	Admitted == Completed + ShedDeadline
//
// FailedOps is the subset of completions whose cluster op missed its
// consistency level.
type Result struct {
	Arrivals        uint64 `obs:"frontdoor.arrivals"`
	Admitted        uint64 `obs:"frontdoor.admitted"`
	Completed       uint64 `obs:"frontdoor.completed"`
	FailedOps       uint64 `obs:"frontdoor.failed_ops"`
	ShedRateLimited uint64 `obs:"frontdoor.shed_rate_limited"`
	ShedQueueFull   uint64 `obs:"frontdoor.shed_queue_full"`
	ShedDeadline    uint64 `obs:"frontdoor.shed_deadline"`
	// MaxQueueDepth is the admission queue's high-water mark.
	MaxQueueDepth int
	// MaxInFlight is the dispatch high-water mark (<= Concurrency).
	MaxInFlight int
	// Makespan is when the last completion landed.
	Makespan float64
	// ShedDigest fingerprints the exact shed set — (tenant, seq,
	// reason) in shed order — so two runs shed identically iff their
	// digests match.
	ShedDigest uint64
	// Windows holds every closed SLO window in order; SLOWindows
	// counts them and SLOViolations the violated ones.
	Windows       []WindowStat
	SLOWindows    uint64 `obs:"frontdoor.slo_windows"`
	SLOViolations int    `obs:"frontdoor.slo_window_violations"`
	// Classes aggregates per tenant class, in Options.Classes order.
	Classes []ClassResult
	// History is the executed-request history (nil unless
	// Options.RecordHistory).
	History check.History
}

// tenant is one simulated client session.
type tenant struct {
	class   int
	rng     *rand.Rand
	arr     *arrivalProc
	bucket  tokenBucket
	keyBase uint64
}

// FrontDoor runs one open-loop serving simulation. Not safe for
// concurrent use; Run may be called once.
type FrontDoor struct {
	opts    Options
	cl      *cluster.Cluster
	tenants []tenant
	queue   *AdmissionQueue
	surges  []Surge
	o       fdObs

	// arrivals holds each tenant's next arrival, tied on the tenant;
	// inflight the admitted requests' departures, tied on Request.Seq.
	arrivals eventHeap[struct{}]
	inflight eventHeap[departure]
	free     int
	seq      uint64
	now      float64
	ran      bool

	res        *Result // the exported ledger: its own allocation
	winLat     []float64
	winReads   int
	winIdx     int
	latByClass [][]float64
}

// New validates opts and builds a front door over cl, whose ops'
// Latency is each request's service time. The cluster should be built
// with EpochOps=1 so a replica's clock advances with every leg it
// serves — coarser epochs quantize service times to epoch boundaries.
func New(cl *cluster.Cluster, opts Options) (*FrontDoor, error) {
	if cl == nil {
		return nil, fmt.Errorf("frontdoor: nil cluster")
	}
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("frontdoor: horizon %v must be positive", opts.Horizon)
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 1024
	}
	if opts.Keys <= 0 {
		opts.Keys = 4
	}
	if opts.SLOWindow < 0 || opts.SLOP99 < 0 {
		return nil, fmt.Errorf("frontdoor: negative SLO window %v or ceiling %v", opts.SLOWindow, opts.SLOP99)
	}
	if len(opts.Classes) == 0 {
		return nil, fmt.Errorf("frontdoor: no tenant classes")
	}
	total := 0
	for i, tc := range opts.Classes {
		if tc.Name == "" {
			return nil, fmt.Errorf("frontdoor: class %d has no name", i)
		}
		if tc.Tenants <= 0 {
			return nil, fmt.Errorf("frontdoor: class %q has %d tenants", tc.Name, tc.Tenants)
		}
		if tc.RatePerTenant <= 0 {
			return nil, fmt.Errorf("frontdoor: class %q rate %v must be positive", tc.Name, tc.RatePerTenant)
		}
		if tc.ReadRatio < 0 || tc.ReadRatio > 1 {
			return nil, fmt.Errorf("frontdoor: class %q read ratio %v out of [0,1]", tc.Name, tc.ReadRatio)
		}
		if tc.Arrival == OnOff && (tc.OnMean <= 0 || tc.OffMean <= 0) {
			return nil, fmt.Errorf("frontdoor: class %q needs positive ON/OFF dwells", tc.Name)
		}
		if tc.Arrival != Poisson && tc.Arrival != OnOff {
			return nil, fmt.Errorf("frontdoor: class %q has unknown arrival kind %d", tc.Name, int(tc.Arrival))
		}
		total += tc.Tenants
	}
	queue, err := NewAdmissionQueue(opts.QueueCap, 0)
	if err != nil {
		return nil, err
	}

	f := &FrontDoor{
		opts:       opts,
		cl:         cl,
		queue:      queue,
		o:          newFDObs(opts.Obs, opts.Classes),
		free:       opts.Concurrency,
		tenants:    make([]tenant, 0, total),
		latByClass: make([][]float64, len(opts.Classes)),
		res:        new(Result),
	}
	opts.Obs.Export(f.res)
	f.res.Classes = make([]ClassResult, len(opts.Classes))
	keySpace := uint64(cl.KeySpace())
	id := 0
	for ci, tc := range opts.Classes {
		f.res.Classes[ci] = ClassResult{Name: tc.Name, Tenants: tc.Tenants}
		burst := max(1, tc.RateLimit)
		for i := 0; i < tc.Tenants; i++ {
			rng := rand.New(rand.NewSource(par.DeriveSeed(opts.Seed, int64(id))))
			f.tenants = append(f.tenants, tenant{
				class:   ci,
				rng:     rng,
				arr:     newArrivalProc(tc.Arrival, tc.RatePerTenant, tc.OnMean, tc.OffMean, rng),
				bucket:  tokenBucket{rate: tc.RateLimit, burst: burst},
				keyBase: uint64(id*opts.Keys) % keySpace,
			})
			id++
		}
	}
	f.o.tenants.Set(float64(total))
	return f, nil
}

// SetSurges installs global demand spikes (must be called before Run).
func (f *FrontDoor) SetSurges(surges []Surge) { f.surges = surges }

// Run drives the open-loop simulation to completion and returns its
// outcome. One-shot.
func (f *FrontDoor) Run() (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("frontdoor: Run is one-shot")
	}
	f.ran = true
	f.res.ShedDigest = fnvOffset

	// Prime each tenant's first arrival.
	for i := range f.tenants {
		at := f.tenants[i].arr.next(0, f.opts.Horizon, f.surges)
		if at <= f.opts.Horizon {
			f.arrivals.push(event[struct{}]{at: at, tie: uint64(i)})
		}
	}

	for {
		f.dispatch()
		na, haveA := f.arrivals.peek()
		nd, haveD := f.inflight.peek()
		switch {
		case haveD && (!haveA || nd.at <= na.at):
			f.advance(nd.at)
			f.inflight.pop()
			f.complete(nd.at, nd.v)
		case haveA:
			f.advance(na.at)
			f.arrivals.pop()
			f.arrive(int(na.tie))
		default:
			// No arrivals left and nothing in flight: anything still
			// queued would need a free server, which dispatch just had.
			f.flushWindows(true)
			f.finishClasses()
			// The caller gets a copy; the ledger the registry holds on
			// to keeps the counters and lets the run's slices go.
			out := *f.res
			f.res.Windows, f.res.Classes, f.res.History = nil, nil, nil
			return &out, nil
		}
	}
}

// advance moves the front door clock, firing any due fault transitions.
func (f *FrontDoor) advance(to float64) {
	f.now = to
	if f.opts.Injector != nil {
		f.opts.Injector.Advance(to)
	}
}

// arrive processes tenant t's arrival at f.now: draw the op, schedule
// the tenant's next arrival, then rate-limit and enqueue.
//
//rafiki:hot
func (f *FrontDoor) arrive(ti int) {
	t := &f.tenants[ti]
	tc := &f.opts.Classes[t.class]

	if at := t.arr.next(f.now, f.opts.Horizon, f.surges); at <= f.opts.Horizon {
		f.arrivals.push(event[struct{}]{at: at, tie: uint64(ti)})
	}

	f.seq++
	req := Request{
		Tenant:  ti,
		Seq:     f.seq,
		IsRead:  t.rng.Float64() < tc.ReadRatio,
		Key:     (t.keyBase + uint64(t.rng.Intn(f.opts.Keys))) % uint64(f.cl.KeySpace()),
		Arrived: f.now,
	}
	if tc.Deadline > 0 {
		req.Deadline = f.now + tc.Deadline
	}
	f.res.Arrivals++
	f.res.Classes[t.class].Arrivals++

	if !t.bucket.allow(f.now) {
		f.shed(req, shedRateLimited)
		return
	}
	if !f.queue.Offer(req) {
		f.shed(req, shedQueueFull)
		return
	}
	f.res.Admitted++
	f.res.Classes[t.class].Admitted++
	if d := f.queue.Len(); d > f.res.MaxQueueDepth {
		f.res.MaxQueueDepth = d
		f.o.maxQueueDepth.Set(float64(d))
	}
}

// dispatch assigns free servers to queued requests, shedding any whose
// deadline already passed while waiting.
//
//rafiki:hot
func (f *FrontDoor) dispatch() {
	for f.free > 0 {
		req, ok := f.queue.Pop()
		if !ok {
			return
		}
		if req.Deadline > 0 && f.now > req.Deadline {
			f.shed(req, shedDeadline)
			continue
		}
		f.execute(req)
	}
}

// execute runs req against the cluster, charging the op's critical-path
// latency as its service time, and books the in-flight departure.
//
//rafiki:hot
func (f *FrontDoor) execute(req Request) {
	var ok bool
	var ver int64
	var svc float64
	if req.IsRead {
		r := f.cl.ReadOp(req.Key)
		ok, ver, svc = r.OK, r.Version, r.Latency
	} else {
		w := f.cl.WriteOp(req.Key)
		ok, ver, svc = w.OK, w.Version, w.Latency
	}
	f.free--
	if used := f.opts.Concurrency - f.free; used > f.res.MaxInFlight {
		f.res.MaxInFlight = used
	}
	f.inflight.push(event[departure]{at: f.now + svc, tie: req.Seq,
		v: departure{req: req, start: f.now, ok: ok, version: ver}})
}

// complete books one departure: latency histograms, SLO windows, and
// the consistency history.
//
//rafiki:hot
func (f *FrontDoor) complete(at float64, d departure) {
	f.free++
	t := &f.tenants[d.req.Tenant]
	lat := at - d.req.Arrived
	f.res.Completed++
	f.res.Classes[t.class].Completed++
	if !d.ok {
		f.res.FailedOps++
		f.res.Classes[t.class].FailedOps++
	}
	if at > f.res.Makespan {
		f.res.Makespan = at
	}
	f.o.latency.Observe(lat)
	f.o.classLatency[t.class].Observe(lat)
	f.latByClass[t.class] = append(f.latByClass[t.class], lat)

	if f.opts.SLOWindow > 0 {
		f.flushWindows(false) //lint:allow hotalloc closes a window once per SLOWindow of virtual time, not per request
		f.winLat = append(f.winLat, lat)
		if d.req.IsRead {
			f.winReads++
		}
	}
	if f.opts.RecordHistory {
		kind := check.OpWrite
		if d.req.IsRead {
			kind = check.OpRead
		}
		f.res.History = append(f.res.History, check.Op{
			Client: d.req.Tenant,
			Key:    d.req.Key,
			Kind:   kind,
			Value:  d.version,
			Start:  d.start,
			End:    at,
			Ok:     d.ok,
		})
	}
}

// shed records one rejected request on the digest and counters.
func (f *FrontDoor) shed(req Request, reason int) {
	f.res.ShedDigest = fnvMix(f.res.ShedDigest, uint64(req.Tenant))
	f.res.ShedDigest = fnvMix(f.res.ShedDigest, req.Seq)
	f.res.ShedDigest = fnvMix(f.res.ShedDigest, uint64(reason))
	cr := &f.res.Classes[f.tenants[req.Tenant].class]
	switch reason {
	case shedRateLimited:
		f.res.ShedRateLimited++
		cr.ShedRateLimited++
	case shedQueueFull:
		f.res.ShedQueueFull++
		cr.ShedQueueFull++
	case shedDeadline:
		f.res.ShedDeadline++
		cr.ShedDeadline++
	}
}

// flushWindows closes every SLO window before the current completion
// time (all remaining ones when final).
func (f *FrontDoor) flushWindows(final bool) {
	if f.opts.SLOWindow <= 0 {
		return
	}
	idx := int(f.res.Makespan / f.opts.SLOWindow)
	for f.winIdx < idx || (final && len(f.winLat) > 0) {
		if len(f.winLat) > 0 {
			f.closeWindow()
		}
		if final && f.winIdx >= idx {
			return
		}
		f.winIdx++
	}
}

// closeWindow emits the current window's stats.
func (f *FrontDoor) closeWindow() {
	n := len(f.winLat)
	w := WindowStat{
		Index:      f.winIdx,
		Start:      float64(f.winIdx) * f.opts.SLOWindow,
		End:        float64(f.winIdx+1) * f.opts.SLOWindow,
		Completed:  n,
		Throughput: float64(n) / f.opts.SLOWindow,
		ReadFrac:   float64(f.winReads) / float64(n),
	}
	w.P50, w.P99, w.P999 = quantiles(f.winLat)
	if f.opts.SLOP99 > 0 && w.P99 > f.opts.SLOP99 {
		w.Violated = true
		f.res.SLOViolations++
	}
	f.res.SLOWindows++
	f.res.Windows = append(f.res.Windows, w)
	if f.opts.OnWindow != nil {
		f.opts.OnWindow(w)
	}
	f.winLat = f.winLat[:0]
	f.winReads = 0
}

// finishClasses computes per-class exact latency quantiles.
func (f *FrontDoor) finishClasses() {
	for ci := range f.res.Classes {
		lats := f.latByClass[ci]
		if len(lats) == 0 {
			continue
		}
		c := &f.res.Classes[ci]
		c.P50, c.P99, c.P999 = quantiles(lats)
	}
}

// quantiles returns the nearest-rank p50, p99 and p999 of xs, reordering
// it. Each is selected in place, not sorted for: p999 over all of xs,
// then p99 among the values at or below it, then p50 among those at or
// below p99 — O(n) in all.
func quantiles(xs []float64) (p50, p99, p999 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	rank := func(q float64) int { return min(max(int(math.Ceil(q*float64(n))), 1), n) - 1 }
	i50, i99, i999 := rank(0.50), rank(0.99), rank(0.999)
	selectNth(xs, i999)
	selectNth(xs[:i999+1], i99)
	selectNth(xs[:i99+1], i50)
	return xs[i50], xs[i99], xs[i999]
}

// selectNth reorders xs so that xs[k] holds the value an ascending sort
// would put there, with nothing larger before it and nothing smaller
// after (Hoare's selection).
func selectNth(xs []float64, k int) {
	for lo, hi := 0, len(xs)-1; lo < hi; {
		pivot := xs[int(uint(lo+hi)>>1)]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// FNV-1a 64-bit, folding whole uint64s a byte at a time.
const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
