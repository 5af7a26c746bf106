package main

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rafiki/internal/nn"
)

func TestMeasureReportsAllocsAndErrors(t *testing.T) {
	var sink [][]byte
	secs, allocs, err := measure(func() error {
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 1024))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if secs < 0 {
		t.Errorf("negative wall time %v", secs)
	}
	if allocs < 100 {
		t.Errorf("allocs = %d, want >= 100", allocs)
	}

	boom := errors.New("boom")
	if _, _, err := measure(func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("measure swallowed the error: %v", err)
	}
}

func TestStageComputesSpeedupAndWrapsErrors(t *testing.T) {
	res, err := stage("demo", func() error { return nil }, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "demo" || res.Speedup <= 0 {
		t.Errorf("bad stage result: %+v", res)
	}

	boom := errors.New("boom")
	if _, err := stage("demo", func() error { return boom }, func() error { return nil }); err == nil || !strings.Contains(err.Error(), "demo serial") {
		t.Errorf("serial error not wrapped: %v", err)
	}
	if _, err := stage("demo", func() error { return nil }, func() error { return boom }); err == nil || !strings.Contains(err.Error(), "demo parallel") {
		t.Errorf("parallel error not wrapped: %v", err)
	}
}

func TestWriteAllocProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := writeAllocProfile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("allocation profile is empty")
	}
	if err := writeAllocProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")); err == nil {
		t.Fatal("writeAllocProfile to a missing directory must fail")
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestTrainMembersRetrainsTheEnsemble: the members trained one at a
// time must be the ensemble's own — every survivor of the full model's
// prune is found among them, and a pruned member is never marked kept.
func TestTrainMembersRetrainsTheEnsemble(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, 40)
	ys := make([]float64, len(xs))
	for i := range xs {
		a, b := rng.Float64(), rng.Float64()
		xs[i] = []float64{a, b}
		ys[i] = 50 + 30*math.Sin(2*a) - 15*b*b
	}
	cfg := nn.DefaultModelConfig()
	cfg.Hidden = []int{4}
	cfg.EnsembleSize = 6
	cfg.PruneFraction = 0.34
	cfg.BR.Epochs = 8
	cfg.Seed = 42
	model, err := nn.Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members, err := trainMembers(xs, ys, cfg, model.Results())
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != cfg.EnsembleSize {
		t.Fatalf("%d member rows, want %d", len(members), cfg.EnsembleSize)
	}
	kept, worstKept, bestPruned := 0, 0.0, math.Inf(1)
	for _, m := range members {
		if m.Epochs < 1 || m.JacobianEvals <= m.Epochs {
			t.Errorf("member %d: %d epochs, %d jacobian passes", m.Member, m.Epochs, m.JacobianEvals)
		}
		if m.Kept {
			kept++
			worstKept = math.Max(worstKept, m.MSE)
		} else {
			bestPruned = math.Min(bestPruned, m.MSE)
		}
	}
	if kept != model.Size() {
		t.Errorf("%d members marked kept, the model kept %d", kept, model.Size())
	}
	if worstKept > bestPruned {
		t.Errorf("kept a member with MSE %v while pruning one with %v", worstKept, bestPruned)
	}
}
