// Package par is the repo's deterministic parallel-execution layer: a
// fork-join over a persistent worker team whose observable results are
// byte-identical regardless of worker count.
//
// Determinism is by construction, not by luck:
//
//   - Tasks are identified by a dense index and write results into
//     index-addressed slots, so the merged output order is the task
//     order, never the completion order.
//   - Any randomness a task needs is derived from the run's base seed
//     and the task index (DeriveSeed), never from shared RNG state, so
//     the random stream each task sees is independent of scheduling.
//   - On failure the error for the lowest task index wins, which makes
//     even the failure mode schedule-independent. All tasks run to
//     completion; there is no early cancel whose cut point would depend
//     on timing.
//   - Observability from inside tasks goes through obs.Registry.Stage
//     (commutative instruments shared, spans and gauges buffered and
//     merged in task order); the layer itself only reports
//     schedule-independent facts (worker count, task count).
//
// Workers defaults to runtime.NumCPU. Workers <= 1 runs tasks inline on
// the calling goroutine, so serial runs pay no synchronization cost and
// exercise the same code path the tests compare against.
//
// A parallel call runs on a team of GOMAXPROCS-1 helper goroutines,
// started on first use and kept for the life of the process, plus the
// caller itself: everyone claims tasks from one atomic counter, so a
// call costs no goroutine and, once its per-call state has been
// recycled, no allocation. A helper that runs out of work polls for the
// next call for a bounded number of yields before it parks, and a
// caller whose last tasks run elsewhere polls briefly and then parks
// until they end. Polling is the point of the team: a fork-join the
// size of one GA brood (two chunks of ~40 µs) finished sooner inline
// than on a freshly woken goroutine, which waits for the idle vCPU's
// thread to wake, so each Recommend lost time to its own fan-out. The
// bounds are counted in iterations, never in wall time, and parking
// keeps a long tail (one ensemble member training for 0.4 s) from
// holding the other CPUs in a spin.
//
// Do guarantees Workers tasks can be in flight at once, even above
// GOMAXPROCS or when the team is busy with another call: whatever the
// idle helpers cannot cover runs on goroutines started for that call.
// DoRange's chunks are short pure computations, so it takes only the
// idle helpers and the caller, and never starts a goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rafiki/internal/obs"
)

// Options configures one parallel stage.
type Options struct {
	// Workers is the maximum number of tasks in flight at once; <= 0
	// means runtime.NumCPU(). The effective count never exceeds the
	// task count.
	Workers int
	// Name, when non-empty together with Obs, labels the stage's
	// instruments: gauge "par.<Name>.workers" (occupancy granted to the
	// stage) and counter "par.<Name>.tasks". Both are
	// schedule-independent, so enabling them keeps snapshots
	// deterministic.
	Name string
	// Obs, when non-nil, receives the stage instruments. A nil registry
	// costs one branch.
	Obs *obs.Registry
}

// Workers resolves a worker-count option: n <= 0 selects
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// resolve bounds the stage's workers by its n items and reports both
// on the stage's instruments.
func resolve(n int, opts Options) int {
	workers := min(Workers(opts.Workers), n)
	if opts.Obs != nil && opts.Name != "" {
		opts.Obs.Gauge("par." + opts.Name + ".workers").Set(float64(workers))
		opts.Obs.Counter("par." + opts.Name + ".tasks").Add(uint64(n))
	}
	return workers
}

// Do runs fn(i) for every i in [0, n) with up to opts.Workers tasks in
// flight and waits for all of them. fn must write its result into an
// index-addressed slot owned by the caller; Do guarantees all writes
// are visible when it returns. Every task runs even if an earlier one
// fails; the returned error is the non-nil error with the lowest task
// index, so the outcome does not depend on scheduling. A task may call
// Do itself.
func Do(n int, opts Options, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := resolve(n, opts)
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return fork(n, workers, true, taskFunc(fn))
}

// Staged is Do for tasks that return a value and emit telemetry: task i
// writes to a stage of opts.Obs of its own (nil when Obs is nil) and
// its result lands in slot i. Once every task has succeeded the stages
// are merged into opts.Obs in task order, so the results and the
// registry's snapshot are the same for every worker count.
func Staged[T any](n int, opts Options, fn func(i int, stage *obs.Registry) (T, error)) ([]T, error) {
	out := make([]T, n)
	stages := make([]*obs.Registry, n)
	err := Do(n, opts, func(i int) error {
		stages[i] = opts.Obs.Stage()
		var err error
		out[i], err = fn(i, stages[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, stage := range stages {
		opts.Obs.Merge(stage)
	}
	return out, nil
}

// DoRange runs fn(s, lo, hi) over a partition of [0, n) into at most
// `workers` contiguous chunks of near-equal size. It is the cheap form
// of Do for very short per-item work (e.g. one forward pass per item),
// amortizing scheduling over whole chunks while keeping results
// index-addressed and the merge order deterministic. Error selection
// follows Do: lowest chunk wins. The chunks run on the caller and the
// team's idle helpers, so a chunk must not wait on another. The chunk
// function takes the call's state s rather than capturing it, so with
// fn a plain function a warm call allocates nothing, on any number of
// workers.
func DoRange[S any](n int, opts Options, s S, fn func(s S, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	// Report items, not chunks: the chunk count depends on the worker
	// bound, and stage instruments must stay schedule-independent.
	workers := resolve(n, opts)
	if workers == 1 {
		return fn(s, 0, n)
	}
	chunk := (n + workers - 1) / workers
	return fork((n+chunk-1)/chunk, workers, false, span[S]{s, fn, chunk, n})
}

// DeriveSeed maps (base, task) to a decorrelated per-task seed via a
// SplitMix64 finalizer. Neighbouring bases or task indices produce
// unrelated streams, so per-task RNGs never overlap no matter how the
// scheduler interleaves them.
func DeriveSeed(base, task int64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(task)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// tasker is one call's body: run executes task i.
type tasker interface{ run(i int) error }

// taskFunc is Do's body. A func value is pointer-shaped, so storing it
// in a job allocates nothing beyond the caller's own closure.
type taskFunc func(i int) error

func (f taskFunc) run(i int) error { return f(i) }

// span is DoRange's body: task t is the t-th chunk of [0, n).
type span[S any] struct {
	s        S
	fn       func(s S, lo, hi int) error
	chunk, n int
}

func (c span[S]) run(t int) error {
	lo := t * c.chunk
	return c.fn(c.s, lo, min(lo+c.chunk, c.n))
}

// Polling budgets, in runtime.Gosched calls (~0.15 µs each on an idle
// P). A helper's outlasts the gap between two broods of a GA search, so
// the next call finds it awake; a caller's covers the usual skew
// between equal chunks.
const (
	helperPolls = 2048
	callerPolls = 256
)

// job is one parallel call's state, recycled through its type's free
// list. Each use is a generation; a worker joins a job with the generation
// it was handed and can claim tasks only while the job is still in it,
// so one that arrives after the call returned finds nothing, even in a
// job already re-armed for the next call, and no call ever has more
// than its Workers in flight.
type job[T tasker] struct {
	body T
	n    int
	gen  uint32
	// claims packs the generation (high 32 bits) and the number of
	// tasks not yet claimed (low 32 bits).
	claims  atomic.Uint64
	pending atomic.Int64  // tasks not yet finished
	done    chan struct{} // the last task's signal to the caller

	mu    sync.Mutex // guards err and errAt
	err   error
	errAt int

	free chan *job[T] // its type's free list
}

// fork runs body's n tasks on the caller, up to workers-1 idle helpers
// and, with topUp, new goroutines for the workers the team could not
// supply. It returns once every task has finished.
func fork[T tasker](n, workers int, topUp bool, body T) error {
	j := getJob[T]()
	j.body, j.n, j.errAt, j.err = body, n, n, nil
	j.gen++
	gen := j.gen
	j.pending.Store(int64(n))
	j.claims.Store(uint64(gen)<<32 | uint64(n))

	helped := recruit(post{j, gen}, workers-1)
	if topUp {
		for range workers - 1 - helped {
			go j.work(gen)
		}
	}
	j.work(gen)
	await(j.done, callerPolls)

	err := j.err
	var zero T
	j.body, j.err = zero, nil
	select {
	case j.free <- j:
	default: // the free list is full; let j go
	}
	return err
}

// work claims and runs tasks of generation gen until none is left.
func (j *job[T]) work(gen uint32) {
	for {
		v := j.claims.Load()
		left := uint32(v)
		if uint32(v>>32) != gen || left == 0 {
			return
		}
		if !j.claims.CompareAndSwap(v, v-1) {
			continue
		}
		// The claimed task keeps the job in this generation until it
		// finishes, so the plain fields are stable.
		i := j.n - int(left)
		if err := j.body.run(i); err != nil {
			j.mu.Lock()
			if i < j.errAt {
				j.err, j.errAt = err, i
			}
			j.mu.Unlock()
		}
		if j.pending.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// pools maps a nil *job[T], standing for its type, to that type's free
// list, a chan *job[T]. Its capacity of 16 bounds the jobs kept, well
// above the calls of one type in flight at once (a Do nested in a Do,
// a few goroutines recommending on one model).
var pools sync.Map

func getJob[T tasker]() *job[T] {
	key := any((*job[T])(nil))
	free, ok := pools.Load(key)
	if !ok {
		free, _ = pools.LoadOrStore(key, make(chan *job[T], 16))
	}
	select {
	case j := <-free.(chan *job[T]):
		return j
	default:
		return &job[T]{done: make(chan struct{}, 1), free: free.(chan *job[T])}
	}
}

// post is what a helper is handed: a job and the generation to work.
type post struct {
	job interface{ work(gen uint32) }
	gen uint32
}

// helper is one member of the team. A caller that flips busy from
// false owns it until it finishes the post it then sends.
type helper struct {
	busy  atomic.Bool
	posts chan post // holds at most the one post its owner sent
}

// team holds the helpers every call shares, grown to GOMAXPROCS-1.
var team struct {
	sync.Mutex
	helpers []*helper
}

// recruit sends p to up to want idle helpers, among the first
// GOMAXPROCS-1 of the team, and returns how many took it. The sends
// never block: an idle helper's channel is empty.
func recruit(p post, want int) int {
	size := runtime.GOMAXPROCS(0) - 1
	team.Lock()
	defer team.Unlock()
	for len(team.helpers) < size {
		h := &helper{posts: make(chan post, 1)}
		go h.loop()
		team.helpers = append(team.helpers, h)
	}
	got := 0
	for _, h := range team.helpers[:size] {
		if got == want {
			break
		}
		if h.busy.CompareAndSwap(false, true) {
			h.posts <- p
			got++
		}
	}
	return got
}

// loop is a helper's life: take a post, work it, become idle again.
func (h *helper) loop() {
	for {
		p := await(h.posts, helperPolls)
		p.job.work(p.gen)
		h.busy.Store(false)
	}
}

// await receives from c, polling it up to polls times with a yield
// between polls before it parks on it.
func await[E any](c chan E, polls int) E {
	for range polls {
		select {
		case e := <-c:
			return e
		default:
			runtime.Gosched()
		}
	}
	return <-c
}
