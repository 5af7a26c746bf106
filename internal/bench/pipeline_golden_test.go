package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"rafiki/internal/core"
	"rafiki/internal/obs"
)

// goldenPipelineOptions sizes the pinned pipeline. It does not shrink
// under the race detector: the digests below hold for exactly this
// sizing.
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

// pipelineDigests hashes what a pipeline hands the experiments: every
// collected sample, the trained model's JSON, and the recommendation at
// a write-heavy, a balanced and a read-heavy workload.
func pipelineDigests(t *testing.T, p *Pipeline) (dataset, model string, recs [3]string) {
	t.Helper()
	short := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:16] }
	var ds []byte
	for _, s := range p.Dataset().Samples {
		ds = fmt.Appendf(ds, "%v %s %x\n", s.Workload, p.Space().Describe(s.Config), math.Float64bits(s.Throughput))
	}
	ds = fmt.Appendf(ds, "dropped %d\n", p.Dataset().Dropped)
	blob, err := json.Marshal(p.Surrogate().Model)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range []float64{0.1, 0.5, 0.9} {
		rec, err := p.Recommend(core.RR(rr))
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = short(fmt.Appendf(nil, "%s %x %d %x", p.Space().Describe(rec.Config),
			math.Float64bits(rec.Predicted), rec.Evaluations, rec.History))
	}
	return short(ds), short(blob), recs
}

// TestPipelineGolden pins both datastores' pipelines against digests
// recorded on the parent (c43df8b), where bench composed collect ->
// train -> search itself instead of preparing a core.Tuner. It only
// compares: re-record by running it on a checkout of that tree.
func TestPipelineGolden(t *testing.T) {
	for _, tc := range []struct {
		name           string
		build          func(PipelineOptions) (*Pipeline, error)
		dataset, model string
		recs           [3]string
	}{
		{"cassandra", NewCassandraPipeline, "4c99d75e005bae08", "0c29f0e49bd5407a",
			[3]string{"602019b9650de53e", "cc610989f392afe3", "eb47c2678f1be71a"}},
		{"scylladb", NewScyllaPipeline, "0d217340700d2832", "ea057ce2c61c3dd4",
			[3]string{"af721c6bb1a75646", "f4702bd30bbe8fd5", "63885e5a9f4bbd47"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := goldenPipelineOptions()
			opts.Env.Obs = obs.NewRegistry()
			p, err := tc.build(opts)
			if err != nil {
				t.Fatal(err)
			}
			dataset, model, recs := pipelineDigests(t, p)
			if dataset != tc.dataset || model != tc.model || recs != tc.recs {
				t.Errorf("dataset %q model %q recs %q, parent had %q %q %q",
					dataset, model, recs, tc.dataset, tc.model, tc.recs)
			}
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
