package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/golden"
	"rafiki/internal/nn"
	"rafiki/internal/obs"
)

func tiny() Sampler {
	s := Default()
	s.SampleOps = 20_000
	return s
}

// TestSampleGolden pins what the sampler measures for every store and
// metric it picks.
func TestSampleGolden(t *testing.T) {
	cfg := config.Config{config.ParamCompactionStrategy: config.CompactionLeveled, config.ParamConcurrentWrites: 64}
	scylla := tiny()
	scylla.Space = config.ScyllaDB()
	var text []byte
	for _, tc := range []struct {
		name string
		s    Sampler
		w    core.Workload
		cfg  config.Config
		seed int64
	}{
		{"cassandra", tiny(), core.RR(0.5), config.Config{}, 9},
		{"cassandra tuned", tiny(), core.RR(0.9), cfg, 10},
		{"cassandra scans", tiny(), core.Workload{ReadRatio: 0.2, ScanRatio: 0.3}, cfg, 11},
		{"inverse p99", tiny().InverseP99(), core.RR(0.5), config.Config{}, 31},
		{"scylla", scylla, core.RR(0.5), config.Config{}, 72},
		{"scylla tuned", scylla, core.RR(0.7), cfg, 73},
		{"two nodes rf 2", tiny().OnCluster(2, 2), core.RR(0.5), config.Config{}, 71},
		{"one node", tiny().OnCluster(1, 1), core.RR(1), cfg, 74},
	} {
		got, err := tc.s.Sample(tc.w, tc.cfg, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		text = fmt.Appendf(text, "%s: %v\n", tc.name, got)
	}
	golden.Check(t, "testdata/sample.golden", text)
}

func TestRunMatchesSample(t *testing.T) {
	s := tiny()
	s.Seed = 5
	tput, err := s.Sample(core.RR(0.7), nil, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := s.Run(core.RR(0.7), nil, 5^40, 40+101)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != tput {
		t.Errorf("Run at Sample's seeds measured %v, Sample %v", res.Throughput, tput)
	}
	if res.Spec.Ops != s.SampleOps || len(st.Metrics().EpochThroughputs) == 0 {
		t.Errorf("Run drove %d ops over %d epochs", res.Spec.Ops, len(st.Metrics().EpochThroughputs))
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default sampler invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Sampler){
		"zero ops":     func(s *Sampler) { s.SampleOps = 0 },
		"negative KRD": func(s *Sampler) { s.KRDFraction = -1 },
		"zero preload": func(s *Sampler) { s.PreloadVersions = 0 },
	} {
		s := Default()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s should error", name)
		}
	}
	bad := tiny()
	bad.SampleOps = 0
	if _, err := bad.Sample(core.RR(0.5), nil, 1); err == nil {
		t.Error("sampling zero ops should error")
	}
	if _, err := tiny().OnCluster(2, 3).Sample(core.RR(0.5), nil, 1); err == nil {
		t.Error("replication factor above node count should error")
	}
}

// TestClusterInverseP99Rejected pins that a cluster sampler asked for
// tail latency fails up front, naming the combination, instead of
// benchmarking a whole cluster and then finding no latencies: nothing
// reaches the registry, so no store was built.
func TestClusterInverseP99Rejected(t *testing.T) {
	for _, s := range []Sampler{tiny().OnCluster(2, 2).InverseP99(), tiny().InverseP99().OnCluster(1, 1)} {
		s.Obs = obs.NewRegistry()
		_, err := s.Sample(core.RR(0.5), nil, 1)
		if err == nil || !strings.Contains(err.Error(), "InverseP99") || !strings.Contains(err.Error(), "OnCluster") {
			t.Fatalf("Sample = %v, want an error naming InverseP99 and OnCluster", err)
		}
		if snap := s.Obs.Snapshot(); len(snap.Counters) != 0 || len(snap.Spans) != 0 {
			t.Errorf("the rejected sample still built a store: %d counters, %d spans", len(snap.Counters), len(snap.Spans))
		}
	}
}

// TestTunerObsAcrossWorkers is the master invariant through the public
// entry point: a core.Tuner and its collector sharing one registry
// export the same snapshot — engine flush and compaction spans in
// sample order, stage spans, every counter — whether identify and
// collect run on one worker or eight. Only the par.* occupancy gauges,
// which report the configured worker count by design, are stripped.
func TestTunerObsAcrossWorkers(t *testing.T) {
	prepare := func(workers int) []byte {
		reg := obs.NewRegistry()
		s := Default()
		s.SampleOps = 3_000
		s.Obs = reg
		opts := core.TunerOptions{
			Identify: core.DefaultIdentifyOptions(),
			Collect:  core.CollectOptions{Workloads: core.RRs(0.1, 0.9), Configs: 4, Seed: 3, Workers: workers},
			Model: nn.ModelConfig{
				Hidden: []int{6}, EnsembleSize: 2, Trainer: nn.TrainerBR, Seed: 4, Workers: workers,
				BR: nn.BROptions{Epochs: 5, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
			},
			GA:  ga.DefaultOptions(),
			Obs: reg,
		}
		tuner, err := core.NewTuner(s, config.Cassandra(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tuner.Prepare(); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got, want := snap.Counters["core.samples"], snap.Counters["par.identify.tasks"]+snap.Counters["par.collect.tasks"]; got != want || want == 0 {
			t.Errorf("core.samples = %d, the two stages ran %d", got, want)
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "par.") {
				delete(snap.Gauges, name)
			}
		}
		blob, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ref := prepare(1)
	for _, want := range []string{"nosql.flush", "core.identify", "core.collect", "core.samples"} {
		if !bytes.Contains(ref, []byte(want)) {
			t.Fatalf("snapshot missing %s:\n%s", want, ref)
		}
	}
	for _, workers := range []int{4, 8} {
		if got := prepare(workers); !bytes.Equal(ref, got) {
			t.Errorf("workers=%d: obs snapshot differs from the serial run", workers)
		}
	}
}

// BenchmarkSample times one tuner-shaped sample: a fresh Cassandra
// engine under the default configuration, preloaded and driven through
// 60 000 ops at RR 0.5 — the unit of work identify and collect repeat
// hundreds of times.
func BenchmarkSample(b *testing.B) {
	s := Default()
	s.SampleOps = 60_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(core.RR(0.5), config.Config{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
