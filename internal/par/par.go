// Package par is the repo's deterministic parallel-execution layer: a
// bounded worker pool whose observable results are byte-identical
// regardless of worker count.
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
// The pool is sized by runtime.NumCPU by default. Workers <= 1 runs
// tasks inline on the calling goroutine, so serial runs pay no
// synchronization cost and exercise the same code path the tests
// compare against.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rafiki/internal/obs"
)

// Options configures one parallel stage.
type Options struct {
	// Workers is the maximum number of concurrent goroutines; <= 0
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

// Do runs fn(i) for every i in [0, n) across a bounded pool and waits
// for all of them. fn must write its result into an index-addressed
// slot owned by the caller; Do guarantees all writes are visible when
// it returns. Every task runs even if an earlier one fails; the
// returned error is the non-nil error with the lowest task index, so
// the outcome does not depend on scheduling.
func Do(n int, opts Options, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(opts.Workers)
	if workers > n {
		workers = n
	}
	if opts.Obs != nil && opts.Name != "" {
		opts.Obs.Gauge("par." + opts.Name + ".workers").Set(float64(workers))
		opts.Obs.Counter("par." + opts.Name + ".tasks").Add(uint64(n))
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
// `workers` contiguous chunks of near-equal size, in parallel. It is
// the cheap form of Do for very short per-item work (e.g. one forward
// pass per item), amortizing scheduling overhead over whole chunks
// while keeping results index-addressed and the merge order
// deterministic. Error selection follows Do: lowest chunk wins. The
// chunk function takes the call's state s rather than capturing it, so
// with fn a plain function a call that runs on one worker allocates
// nothing.
func DoRange[S any](n int, opts Options, s S, fn func(s S, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(Workers(opts.Workers), n)
	// Report items, not chunks: the chunk count depends on the worker
	// bound, and stage instruments must stay schedule-independent.
	if opts.Obs != nil && opts.Name != "" {
		opts.Obs.Gauge("par." + opts.Name + ".workers").Set(float64(workers))
		opts.Obs.Counter("par." + opts.Name + ".tasks").Add(uint64(n))
	}
	if workers == 1 {
		return fn(s, 0, n)
	}
	chunk := (n + workers - 1) / workers
	return Do((n+chunk-1)/chunk, Options{Workers: workers}, func(t int) error {
		lo := t * chunk
		return fn(s, lo, min(lo+chunk, n))
	})
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
