package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

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
