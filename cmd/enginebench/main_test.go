package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rafiki/internal/nosql"
)

func TestNewWarmEngineServesAllOpTypes(t *testing.T) {
	e, err := newWarmEngine(3, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Clock() <= 0 {
		t.Fatal("warmup consumed no virtual time")
	}
	before := e.Clock()
	e.Read(1)
	e.Write(2)
	e.Delete(3)
	e.Scan(0, 16)
	e.FinishEpoch()
	if e.Clock() <= before {
		t.Fatal("post-warmup ops consumed no virtual time")
	}
}

func TestMeasureOpCountsAllocsAndTime(t *testing.T) {
	e, err := newWarmEngine(5, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	var sink [][]byte
	secs, allocs := measureOp(e, 100, func(int) {
		sink = append(sink, make([]byte, 512))
	})
	_ = sink
	if secs < 0 {
		t.Errorf("negative wall time %v", secs)
	}
	if allocs < 100 {
		t.Errorf("allocs = %d, want >= 100", allocs)
	}
}

func TestMeasuredOpLoopMatchesEngineSteadyState(t *testing.T) {
	// The read loop over a warm engine must stay within the alloc
	// budget the engine's own TestOpAllocGuard pins — if this drifts,
	// the benchmark is measuring harness overhead, not the engine.
	e, err := newWarmEngine(7, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := int64(e.KeySpace())
	var eng *nosql.Engine = e
	_, allocs := measureOp(eng, 5_000, func(int) {
		eng.Read(uint64(rng.Int63n(n)))
	})
	if perOp := float64(allocs) / 5_000; perOp > 0.25 {
		t.Errorf("read loop allocates %.3f/op, want well under 0.25", perOp)
	}
}

func TestRunWritesReportAndProfiles(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "engine.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{
		"-out", outPath, "-ops", "2000", "-seed", "7",
		"-cpuprofile", cpu, "-memprofile", mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.OpsPerType != 2000 || rep.Seed != 7 || rep.WarmupOps != 500 {
		t.Errorf("report header = ops %d seed %d warmup %d, want 2000/7/500",
			rep.OpsPerType, rep.Seed, rep.WarmupOps)
	}
	wantOps := []string{"read", "update", "insert", "delete", "scan", "scan_mixed"}
	if len(rep.Ops) != len(wantOps) {
		t.Fatalf("measured %d op types, want %d", len(rep.Ops), len(wantOps))
	}
	for i, r := range rep.Ops {
		if r.Op != wantOps[i] {
			t.Errorf("op[%d] = %q, want %q", i, r.Op, wantOps[i])
		}
		if r.Ops != 2000 || r.OpsPerSec <= 0 || r.WallSeconds <= 0 {
			t.Errorf("op %s: ops %d secs %v ops/s %v, want positive measurements of 2000 ops",
				r.Op, r.Ops, r.WallSeconds, r.OpsPerSec)
		}
	}
	if rep.TotalOpsPerSec <= 0 {
		t.Errorf("total ops/s = %v, want > 0", rep.TotalOpsPerSec)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}
