package nosql

import (
	"runtime"
	"testing"
	"weak"

	"rafiki/internal/config"
	"rafiki/internal/golden"
	"rafiki/internal/obs"
)

// benchEngine builds an engine for the write-path overhead benchmark.
func benchEngine(b *testing.B, reg *obs.Registry) *Engine {
	b.Helper()
	e, err := New(Options{Space: config.Cassandra(), Seed: 42, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	e.Preload(1)
	return e
}

// BenchmarkEngineWriteObsDisabled measures the instrumented write path
// with observability off (nil registry): the acceptance budget is that
// the nil-check branches cost < 2% versus an uninstrumented build.
// Compare against BenchmarkEngineWriteObsEnabled for the enabled cost.
func BenchmarkEngineWriteObsDisabled(b *testing.B) {
	e := benchEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(uint64(i) % uint64(e.KeySpace()))
	}
}

// BenchmarkEngineWriteObsEnabled measures the same path with a live
// registry attached.
func BenchmarkEngineWriteObsEnabled(b *testing.B) {
	e := benchEngine(b, obs.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(uint64(i) % uint64(e.KeySpace()))
	}
}

// BenchmarkEngineReadObsDisabled / Enabled do the same for reads.
func BenchmarkEngineReadObsDisabled(b *testing.B) {
	e := benchEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Read(uint64(i) % uint64(e.KeySpace()))
	}
}

func BenchmarkEngineReadObsEnabled(b *testing.B) {
	e := benchEngine(b, obs.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Read(uint64(i) % uint64(e.KeySpace()))
	}
}

// engineObsRun drives a seeded CRUD+scan run through compaction, a
// background drain and a restart, and returns the engine with its
// registry.
func engineObsRun(t *testing.T) (*Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	e, err := New(Options{Space: config.Cassandra(), Seed: 7, EpochOps: 256, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.Preload(1)
	ks := uint64(e.KeySpace())
	for i := uint64(0); i < 150_000; i++ {
		switch {
		case i%97 == 0:
			e.Scan(i%ks, 24)
		case i%4 == 0:
			e.Read(i % ks)
		case i%4 == 3:
			e.Delete(i % ks)
		default:
			e.Write(i % ks)
		}
	}
	e.FinishEpoch()
	e.CompactAll()
	e.DrainBackground(60)
	e.Restart()
	return e, reg
}

// TestEngineObsGolden pins the registry snapshot engineObsRun leaves.
func TestEngineObsGolden(t *testing.T) {
	_, reg := engineObsRun(t)
	snap, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/obs_engine.json", snap)
}

// TestEngineObsReconcile: after engineObsRun the ledger's epoch count
// agrees with the epoch series and the throughput histogram.
func TestEngineObsReconcile(t *testing.T) {
	e, reg := engineObsRun(t)
	m := e.Metrics()
	snap := reg.Snapshot()
	if m.Scans == 0 || m.ScanRows == 0 || m.Deletes == 0 || m.Flushes == 0 || m.Compactions == 0 || m.Restarts != 1 {
		t.Errorf("run did not exercise every exported counter: %+v", m)
	}
	if m.Epochs != uint64(len(m.EpochThroughputs)) {
		t.Errorf("Epochs = %d, series holds %d", m.Epochs, len(m.EpochThroughputs))
	}
	if hs := snap.Histograms["nosql.epoch_throughput"]; hs.Total != len(m.EpochThroughputs) {
		t.Errorf("throughput histogram holds %d epochs, want %d", hs.Total, len(m.EpochThroughputs))
	}
	// Compactions must have produced spans with consistent geometry.
	for _, sp := range snap.Spans {
		if sp.End < sp.Start {
			t.Errorf("span %s runs backwards: [%v, %v]", sp.Name, sp.Start, sp.End)
		}
		if sp.Unit != "vsec" {
			t.Errorf("span %s unit = %q, want vsec", sp.Name, sp.Unit)
		}
	}
}

// TestMetricsLedgerNames pins the counter names Metrics exports to the
// ten the engine's obs twin published.
func TestMetricsLedgerNames(t *testing.T) {
	golden.Names(t, new(Metrics),
		"nosql.compactions", "nosql.deletes", "nosql.epochs", "nosql.flushes", "nosql.flushes_forced",
		"nosql.reads", "nosql.restarts", "nosql.scan_rows", "nosql.scans", "nosql.writes")
}

// TestExportReleasesEngines: a registry that outlives the engines built
// on it holds their ledgers, not the engines. The exported Metrics is an
// allocation of its own; were it a field of Engine, the registry's
// pointer would keep every engine — tables, caches, commit log — alive.
func TestExportReleasesEngines(t *testing.T) {
	reg := obs.NewRegistry()
	engines := make([]weak.Pointer[Engine], 8)
	for i := range engines {
		e, err := New(Options{Space: config.Cassandra(), Seed: int64(i), Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		e.Preload(1)
		e.Write(uint64(i))
		engines[i] = weak.Make(e)
	}
	runtime.GC()
	for i, e := range engines {
		if e.Value() != nil {
			t.Errorf("engine %d is still reachable while only its registry lives", i)
		}
	}
	if got := reg.Snapshot().Counters["nosql.writes"]; got != uint64(len(engines)) {
		t.Errorf("nosql.writes = %d after the engines were dropped, want %d", got, len(engines))
	}
}
