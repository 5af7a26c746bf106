package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"rafiki/internal/core"
	"rafiki/internal/golden"
	"rafiki/internal/obs"
)

// goldenPipelineOptions sizes the pinned pipeline. It does not shrink
// under the race detector: the golden holds for exactly this sizing.
func goldenPipelineOptions() PipelineOptions {
	opts := tinyPipelineOptions()
	opts.Env.SampleOps = 5_000
	opts.Collect.Workloads = core.RRs(0.1, 0.5, 0.9)
	opts.Collect.Configs = 6
	opts.Model.EnsembleSize = 3
	opts.Model.BR.Epochs = 10
	opts.GA.Population = 16
	opts.GA.Generations = 8
	return opts
}

// pipelineText renders what a pipeline hands the experiments: every
// collected sample, the trained model (its size and digest) and the
// recommendation at a write-heavy, a balanced and a read-heavy workload.
func pipelineText(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var b []byte
	for _, s := range p.Dataset().Samples {
		b = fmt.Appendf(b, "sample %v %s %v\n", s.Workload, p.Space().Describe(s.Config), s.Throughput)
	}
	b = fmt.Appendf(b, "dropped %d\n", p.Dataset().Dropped)
	blob, err := json.Marshal(p.Surrogate().Model)
	if err != nil {
		t.Fatal(err)
	}
	b = fmt.Appendf(b, "model members %d json_bytes %d digest %s\n", p.Surrogate().Model.Size(), len(blob), golden.Digest(blob))
	for _, rr := range []float64{0.1, 0.5, 0.9} {
		rec, err := p.Recommend(core.RR(rr))
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "recommend rr %v %s predicted %v evaluations %d\nhistory %v\n",
			rr, p.Space().Describe(rec.Config), rec.Predicted, rec.Evaluations, rec.History)
	}
	return b
}

// TestPipelineGolden pins what both datastores' pipelines hand the
// experiments: a change to Tuner.Prepare/Recommend, core.Collect or
// Surrogate.Problem that moves a sample, the model or a recommendation
// shows up in testdata/pipeline_*.golden.
func TestPipelineGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(PipelineOptions) (*Pipeline, error)
	}{
		{"cassandra", NewCassandraPipeline},
		{"scylladb", NewScyllaPipeline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := goldenPipelineOptions()
			opts.Env.Obs = obs.NewRegistry()
			p, err := tc.build(opts)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "testdata/pipeline_"+tc.name+".golden", pipelineText(t, p))
		})
	}
}

// TestExperimentsRecommendThroughTuner: an experiment's recommendation
// is a core.Tuner.Recommend call — one core.search span each on the
// environment's registry — so whatever the tuner comes to do per
// recommendation reaches the tables and figures too.
func TestExperimentsRecommendThroughTuner(t *testing.T) {
	opts := goldenPipelineOptions()
	opts.Env.Obs = obs.NewRegistry()
	p, err := NewCassandraPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	searches := func() (n int) {
		for _, sp := range opts.Env.Obs.Snapshot().Spans {
			if sp.Name == "core.search" {
				n++
			}
		}
		return n
	}
	if _, err := CrossWorkloadPenalty(p); err != nil {
		t.Fatal(err)
	}
	if got := searches(); got != 2 {
		t.Errorf("crossworkload tunes for two workloads, recorded %d core.search spans", got)
	}
	if _, err := DynamicTrace(p); err != nil {
		t.Fatal(err)
	}
	if got := searches(); got <= 2 {
		t.Error("dynamic's controllers recorded no core.search span: they do not run on the pipeline's tuner")
	}
}
