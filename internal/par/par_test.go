package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rafiki/internal/obs"
)

func TestDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		n := 100
		hits := make([]int32, n)
		err := Do(n, Options{Workers: workers}, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestDoZeroTasks(t *testing.T) {
	if err := Do(0, Options{}, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(20, Options{Workers: workers}, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7" {
			t.Fatalf("workers=%d: err = %v, want task 7", workers, err)
		}
	}
}

// The layer's core contract: index-addressed results are identical for
// any worker count, including results derived from per-task RNGs.
func TestDoDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out := make([]float64, 64)
		err := Do(len(out), Options{Workers: workers}, func(i int) error {
			rng := rand.New(rand.NewSource(DeriveSeed(42, int64(i))))
			out[i] = rng.Float64()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestDoRangeCoversPartition(t *testing.T) {
	for _, workers := range []int{1, 3, 7, 100} {
		n := 37
		hits := make([]int32, n)
		err := DoRange(n, Options{Workers: workers}, hits, func(hits []int32, lo, hi int) error {
			if lo >= hi {
				return fmt.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, h)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 {
		t.Error("Workers(0) must be at least 1")
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]bool)
	for base := int64(0); base < 8; base++ {
		for task := int64(0); task < 64; task++ {
			s := DeriveSeed(base, task)
			if seen[s] {
				t.Fatalf("seed collision at base=%d task=%d", base, task)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 2) != DeriveSeed(1, 2) {
		t.Error("DeriveSeed not pure")
	}
}

func TestDoObsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	err := Do(10, Options{Workers: 4, Name: "stage", Obs: reg}, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["par.stage.tasks"]; got != 10 {
		t.Errorf("task counter = %d, want 10", got)
	}
	if got := snap.Gauges["par.stage.workers"]; got != 4 {
		t.Errorf("worker gauge = %v, want 4", got)
	}
	// A nil registry must be accepted silently.
	if err := Do(3, Options{Name: "x"}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestStagedOrdersResultsAndTelemetry: results come back in task order
// and each task's spans reach the registry in task order, whatever the
// worker count; a failure returns the lowest task's error and no
// results.
func TestStagedOrdersResultsAndTelemetry(t *testing.T) {
	run := func(workers int) ([]int, []byte) {
		reg := obs.NewRegistry()
		out, err := Staged(40, Options{Workers: workers, Obs: reg}, func(i int, stage *obs.Registry) (int, error) {
			stage.Record(obs.Span{Name: "task", Start: float64(i), End: float64(i + 1)})
			stage.Counter("tasks").Inc()
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out, blob
	}
	refOut, refSnap := run(1)
	for i, v := range refOut {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
	for _, workers := range []int{3, 8} {
		out, snap := run(workers)
		if !slices.Equal(out, refOut) || !bytes.Equal(snap, refSnap) {
			t.Errorf("workers=%d: results or snapshot differ from the serial run", workers)
		}
	}

	// A nil registry hands every task a nil stage.
	out, err := Staged(3, Options{}, func(i int, stage *obs.Registry) (bool, error) { return stage == nil, nil })
	if err != nil || !slices.Equal(out, []bool{true, true, true}) {
		t.Errorf("nil registry: %v, %v", out, err)
	}
	_, err = Staged(10, Options{Workers: 4}, func(i int, _ *obs.Registry) (int, error) {
		if i >= 6 {
			return 0, fmt.Errorf("task %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 6" {
		t.Errorf("err = %v, want task 6", err)
	}
}

// TestDoNested: a task may call Do itself, whether the team's helpers
// are all busy with the outer call or not, and every inner slot is
// written once.
func TestDoNested(t *testing.T) {
	const outer, inner = 6, 9
	hits := make([]int32, outer*inner)
	err := Do(outer, Options{Workers: 3}, func(i int) error {
		return Do(inner, Options{Workers: 2}, func(k int) error {
			atomic.AddInt32(&hits[i*inner+k], 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("slot %d written %d times", i, h)
		}
	}
}

// TestDoWorkersAboveGOMAXPROCS: Workers: 4 keeps 4 tasks in flight at
// once on two Ps, where the team has one helper. Each task waits at a
// barrier that opens only when all four have arrived.
func TestDoWorkersAboveGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const workers = 4
	var arrived atomic.Int32
	open := make(chan struct{})
	timeout := time.After(10 * time.Second)
	err := Do(workers, Options{Workers: workers}, func(i int) error {
		if arrived.Add(1) == workers {
			close(open)
		}
		select {
		case <-open:
			return nil
		case <-timeout:
			return fmt.Errorf("task %d: only %d of %d tasks in flight", i, arrived.Load(), workers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDoRangeBackToBack runs 10 000 DoRange calls in a row, each
// writing every index of its output, so a helper still finishing one
// call while the next re-arms the recycled state would leave a wrong or
// missing slot (and, under -race, a report).
func TestDoRangeBackToBack(t *testing.T) {
	const n = 48
	out := make([]int, n)
	fill := func(call []int, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = call[0]*n + i
		}
		return nil
	}
	call := []int{0}
	for c := range 10_000 {
		call[0] = c
		if err := DoRange(n, Options{Workers: 2 + c%3}, call, fill); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != c*n+i {
				t.Fatalf("call %d: slot %d = %d, want %d", c, i, v, c*n+i)
			}
		}
	}
}

// TestDoBoundsInFlight: back-to-back calls recycle one job, and a
// worker started for an earlier call (a goroutine that got its first
// turn late, a helper that woke late) must not join a later one, where
// it would be one worker more than that call's Workers. Each task
// yields, so even on one P the workers of a call interleave.
func TestDoBoundsInFlight(t *testing.T) {
	var inFlight atomic.Int32
	for c := range 5000 {
		workers := 2 + c%3
		err := Do(8, Options{Workers: workers}, func(int) error {
			defer inFlight.Add(-1)
			if k := inFlight.Add(1); int(k) > workers {
				return fmt.Errorf("call %d: %d tasks in flight, Workers %d", c, k, workers)
			}
			runtime.Gosched()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDoLowestErrorFromHelpers: task 0 holds whichever worker claimed
// it until every other task has finished, so the failing tasks 3 and 5
// run on the other workers; the error is still task 3's, and DoRange's
// is the lowest failing chunk's.
func TestDoLowestErrorFromHelpers(t *testing.T) {
	const n = 8
	var finished atomic.Int32
	released := make(chan struct{})
	err := Do(n, Options{Workers: 2}, func(i int) error {
		if i == 0 {
			<-released
			return nil
		}
		defer func() {
			if finished.Add(1) == n-1 {
				close(released)
			}
		}()
		if i == 3 || i == 5 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3" {
		t.Errorf("Do: err = %v, want task 3", err)
	}
	err = DoRange(40, Options{Workers: 4}, 0, func(_ int, lo, _ int) error {
		if lo > 0 {
			return fmt.Errorf("chunk at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "chunk at 10" {
		t.Errorf("DoRange: err = %v, want chunk at 10", err)
	}
}

// TestDoRangeAllocGuard: a warm two-worker DoRange allocates nothing,
// on any GOMAXPROCS: the team's helpers and the recycled per-call state
// replace per-call goroutines, closures and error slots.
func TestDoRangeAllocGuard(t *testing.T) {
	out := make([]float64, 48)
	call := func() {
		if err := DoRange(len(out), Options{Workers: 2}, out, squares); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
		t.Errorf("a warm 2-worker DoRange allocates %v times, want 0", allocs)
	}
}

func squares(out []float64, lo, hi int) error {
	for i := lo; i < hi; i++ {
		out[i] = float64(i * i)
	}
	return nil
}

// BenchmarkDoRange times the fork-join itself on two workers: "empty"
// is two chunks with no work, "brood" two chunks of a 48-row body sized
// like a GA brood's batch prediction (per row, 18 inputs into 14 units
// for each of ten ensemble members).
func BenchmarkDoRange(b *testing.B) {
	const rows, in, hidden, members = 48, 18, 14, 10
	w := make([]float64, members*in*hidden)
	for i := range w {
		w[i] = float64(i%7) / 7
	}
	out := make([]float64, rows)
	for _, bc := range []struct {
		name string
		fn   func(out []float64, lo, hi int) error
	}{
		{"empty", func([]float64, int, int) error { return nil }},
		{"brood", func(out []float64, lo, hi int) error {
			for r := lo; r < hi; r++ {
				var sum float64
				for m := range members {
					for h := range hidden {
						acc := float64(r)
						for _, wi := range w[(m*hidden+h)*in : (m*hidden+h+1)*in] {
							acc = acc*0.5 + wi
						}
						sum += acc
					}
				}
				out[r] = sum
			}
			return nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := DoRange(rows, Options{Workers: 2}, out, bc.fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
