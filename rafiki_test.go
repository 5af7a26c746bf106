package rafiki_test

import (
	"testing"

	"rafiki"
)

func TestPublicAPIEngineAndWorkload(t *testing.T) {
	eng, err := rafiki.NewEngine(rafiki.EngineOptions{
		Space: rafiki.CassandraSpace(),
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Preload(3)
	res, err := rafiki.RunWorkload(eng, rafiki.WorkloadSpec{
		ReadRatio: 0.7,
		KRDMean:   float64(eng.KeySpace()) / 2,
		Ops:       30_000,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	m := eng.Metrics()
	if m.Ops() != 30_000 {
		t.Errorf("ops = %d", m.Ops())
	}
}

func TestPublicAPIScyllaEngine(t *testing.T) {
	eng, err := rafiki.NewScyllaEngine(rafiki.ScyllaOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng.Preload(2)
	res, err := rafiki.RunWorkload(eng, rafiki.WorkloadSpec{
		ReadRatio: 0.5,
		KRDMean:   float64(eng.KeySpace()) / 2,
		Ops:       20_000,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

// TestPublicAPIScyllaCollector: a ScyllaDB space makes the built-in
// collector sample a ScyllaEngine — auto-tuner included — so its number
// is the one a hand-built engine measures at the collector's seeds, and
// not the one a plain Engine on the ScyllaDB space does.
func TestPublicAPIScyllaCollector(t *testing.T) {
	const base, seed, ops = 5, 700_001, 20_000
	collector := rafiki.NewSimulatorCollector(rafiki.SimulatorConfig{
		Space: rafiki.ScyllaDBSpace(), SampleOps: ops, Seed: base,
	})
	cfg := rafiki.Config{rafiki.ParamConcurrentWrites: 64}
	got, err := collector.Sample(rafiki.RR(0.7), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	byHand := func(store interface {
		rafiki.Store
		Preload(versions int)
	}, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		store.Preload(3)
		res, err := rafiki.RunWorkload(store, rafiki.WorkloadSpec{
			ReadRatio: 0.7, KRDMean: 2 * float64(store.KeySpace()), Ops: ops, Seed: seed + 101,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	if want := byHand(rafiki.NewScyllaEngine(rafiki.ScyllaOptions{Config: cfg, Seed: base ^ seed})); got != want {
		t.Errorf("collector sampled %v, a hand-built ScyllaEngine %v", got, want)
	}
	if plain := byHand(rafiki.NewEngine(rafiki.EngineOptions{Space: rafiki.ScyllaDBSpace(), Config: cfg, Seed: base ^ seed})); got == plain {
		t.Errorf("collector sampled %v, what a plain Engine on the ScyllaDB space measures", got)
	}
}

func TestPublicAPITrace(t *testing.T) {
	trace, err := rafiki.SynthesizeTrace(rafiki.DefaultTraceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 384 {
		t.Errorf("trace windows = %d, want 384", len(trace))
	}
	ops := []rafiki.Op{{IsRead: true, Key: 1}, {IsRead: false, Key: 1}}
	ch, err := rafiki.Characterize(ops, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.WindowReadRatios) != 1 || ch.WindowReadRatios[0] != 0.5 {
		t.Errorf("characterization = %+v", ch)
	}
}

func TestPublicAPICluster(t *testing.T) {
	c, err := rafiki.NewCluster(rafiki.ClusterOptions{
		Nodes:             2,
		ReplicationFactor: 2,
		Space:             rafiki.CassandraSpace(),
		Seed:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(2)
	res, err := rafiki.RunWorkload(c, rafiki.WorkloadSpec{
		ReadRatio: 0.9,
		KRDMean:   float64(c.KeySpace()) / 2,
		Ops:       20_000,
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestPublicAPITunerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning is slow")
	}
	collector := rafiki.NewSimulatorCollector(rafiki.SimulatorConfig{
		SampleOps: 25_000,
		Seed:      7,
	})
	opts := rafiki.DefaultTunerOptions()
	opts.SkipIdentify = true
	opts.Collect.Workloads = rafiki.RRs(0, 0.3, 0.6, 0.9)
	opts.Collect.Configs = 10
	opts.Model.EnsembleSize = 4
	opts.Model.BR.Epochs = 30
	opts.GA.Population = 24
	opts.GA.Generations = 20

	tuner, err := rafiki.NewTuner(collector, rafiki.CassandraSpace(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Prepare(); err != nil {
		t.Fatal(err)
	}
	rec, err := tuner.Recommend(rafiki.RR(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Config) == 0 {
		t.Error("empty recommendation")
	}

	// Drive the online controller against a live engine.
	eng, err := rafiki.NewEngine(rafiki.EngineOptions{Space: rafiki.CassandraSpace(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng.Preload(2)
	ctrl, err := rafiki.NewController(tuner, eng, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	retuned, err := ctrl.Observe(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !retuned {
		t.Error("first observation should retune")
	}
}

func TestPublicAPIForecasterAndGenerators(t *testing.T) {
	m, err := rafiki.NewMarkovForecaster(5)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(0.8)
	if p := m.Predict(); p < 0 || p > 1 {
		t.Errorf("Predict = %v", p)
	}
	kg, err := rafiki.NewKeyGenerator(1000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kg.Next() >= 1000 {
		t.Error("key out of range")
	}
	zg, err := rafiki.NewZipfKeyGenerator(1000, 1.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if zg.Next() >= 1000 {
		t.Error("zipf key out of range")
	}
}

func TestPublicAPIClusterFailover(t *testing.T) {
	c, err := rafiki.NewCluster(rafiki.ClusterOptions{
		Nodes:             2,
		ReplicationFactor: 2,
		Space:             rafiki.CassandraSpace(),
		Seed:              11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadConsistency(rafiki.ConsistencyQuorum); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	c.Read(1)
	if c.Stats().UnavailableReads != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIEngineRestart(t *testing.T) {
	eng, err := rafiki.NewEngine(rafiki.EngineOptions{Space: rafiki.CassandraSpace(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		eng.Write(k)
	}
	eng.FinishEpoch()
	eng.Restart()
	if eng.Metrics().ReplayedRecords != 100 {
		t.Errorf("replayed = %d", eng.Metrics().ReplayedRecords)
	}
	if eng.Metrics().LatencyPercentile(0.5) <= 0 {
		t.Error("latency percentile missing")
	}
}
