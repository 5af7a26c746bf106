package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/obs"
)

// pipelineFingerprint builds a small end-to-end pipeline (collect ->
// train -> GA search) with the given worker bound and returns the
// serialized surrogate model, the GA recommendation, and the obs
// snapshot JSON with the par.* occupancy gauges stripped (the one
// metric that reports the configured worker count by design).
func pipelineFingerprint(t *testing.T, workers int) ([]byte, core.OptimizeResult, []byte) {
	t.Helper()
	opts := tinyPipelineOptions()
	opts.Env.SampleOps = 5_000
	opts.Env.Workers = workers
	opts.Env.Obs = obs.NewRegistry()
	opts.Collect.Workloads = core.RRs(0.1, 0.5, 0.9)
	opts.Collect.Configs = 6
	opts.Model.EnsembleSize = 3
	opts.Model.BR.Epochs = 10
	opts.GA.Population = 16
	opts.GA.Generations = 8

	p, err := NewCassandraPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := json.Marshal(p.Surrogate().Model)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recommend(core.RR(0.9))
	if err != nil {
		t.Fatal(err)
	}
	snap := opts.Env.Obs.Snapshot()
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "par.") {
			delete(snap.Gauges, name)
		}
	}
	blob, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return model, rec, blob
}

// TestCollectorsStageTelemetry: every variant of the environment's
// sampler is a core.ObsCollector through any core.Collector-typed
// handle, and sampling through a stage registry yields the
// same value as the plain path while routing engine telemetry into the
// stage (merged back without loss).
func TestCollectorsStageTelemetry(t *testing.T) {
	env := tinyEnv()
	scylla := env.Sampler
	scylla.Space = config.ScyllaDB()
	for _, tc := range []struct {
		name string
		c    core.Collector
	}{
		{"cassandra", env.Sampler},
		{"latency", env.InverseP99()},
		{"scylla", scylla},
		{"cluster", env.OnCluster(2, 2)},
	} {
		oc, ok := tc.c.(core.ObsCollector)
		if !ok {
			t.Fatalf("%s collector does not implement core.ObsCollector", tc.name)
		}
		plain, err := tc.c.Sample(core.RR(0.5), nil, 31)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		stage := reg.Stage()
		staged, err := oc.SampleObs(core.RR(0.5), nil, 31, stage)
		if err != nil {
			t.Fatal(err)
		}
		if plain != staged {
			t.Errorf("%s: staged sample %v != plain %v", tc.name, staged, plain)
		}
		reg.Merge(stage)
		if len(reg.Snapshot().Counters) == 0 {
			t.Errorf("%s: staged sample recorded no engine counters", tc.name)
		}
	}
}

// TestMixedOpCollectDeterministicAcrossWorkers pins the parallelism
// contract for the CRUD+scan suite specifically: collection over
// workload shapes that exercise range scans and deletes (via the mix's
// mutation share) must produce an identical dataset and byte-identical
// engine telemetry at 1, 2, 4, and 8 workers. The mixed-op driver touches engine paths (merged iterators, tombstone
// accounting, TTL expiry) the RR-only tests never reach, so worker
// invariance is asserted for them separately.
func TestMixedOpCollectDeterministicAcrossWorkers(t *testing.T) {
	mixed := []core.Workload{
		{ReadRatio: 0.2, ScanRatio: 0.3},
		{ReadRatio: 0.8, ScanRatio: 0.1},
		{ReadRatio: 0.5, ScanRatio: 0.05},
	}
	sampleOps := 5_000
	workerCounts := []int{2, 4, 8}
	if raceEnabled {
		// The race build runs everything twice (-count=2) on the
		// shared 600 s package budget; shrink the samples, keep the
		// invariance claim.
		sampleOps = 1_500
		workerCounts = []int{4}
	}
	collect := func(workers int) (core.Dataset, []byte) {
		env := tinyEnv()
		env.SampleOps = sampleOps
		env.Obs = obs.NewRegistry()
		ds, err := core.Collect(env.Sampler, config.Cassandra(), core.CollectOptions{
			Workloads: mixed,
			Configs:   4,
			Seed:      17,
			Workers:   workers,
			Obs:       env.Obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := env.Obs.Snapshot()
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "par.") {
				delete(snap.Gauges, name)
			}
		}
		blob, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return ds, blob
	}
	refDS, refSnap := collect(1)
	if !bytes.Contains(refSnap, []byte("nosql.scans")) {
		t.Fatalf("mixed-op collection recorded no engine scans:\n%s", refSnap)
	}
	if !bytes.Contains(refSnap, []byte("nosql.deletes")) {
		t.Fatal("mixed-op collection recorded no engine deletes")
	}
	for _, workers := range workerCounts {
		ds, snap := collect(workers)
		if !reflect.DeepEqual(refDS, ds) {
			t.Errorf("workers=%d: mixed-op dataset differs from serial run", workers)
		}
		if !bytes.Equal(refSnap, snap) {
			t.Errorf("workers=%d: mixed-op obs snapshot differs from serial run", workers)
		}
	}
}

// TestPipelineDeterministicAcrossWorkers is the end-to-end parallelism
// contract: collection, ensemble training, and the surrogate-backed GA
// must produce byte-identical models, identical recommendations, and
// byte-identical telemetry whether the pipeline runs serially or on
// eight workers.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline determinism test is slow")
	}
	refModel, refRec, refSnap := pipelineFingerprint(t, 1)
	if len(refSnap) == 0 || !bytes.Contains(refSnap, []byte("nn.batch_predictions")) {
		t.Fatalf("snapshot missing batch-prediction counter:\n%s", refSnap)
	}
	for _, workers := range []int{4, 8} {
		model, rec, snap := pipelineFingerprint(t, workers)
		if !bytes.Equal(refModel, model) {
			t.Errorf("workers=%d: trained model differs from serial run", workers)
		}
		if !reflect.DeepEqual(refRec, rec) {
			t.Errorf("workers=%d: GA recommendation differs from serial run:\n%+v\nvs\n%+v", workers, rec, refRec)
		}
		if !bytes.Equal(refSnap, snap) {
			t.Errorf("workers=%d: obs snapshot differs from serial run", workers)
		}
	}
}
