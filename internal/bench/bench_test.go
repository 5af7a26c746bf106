package bench

import (
	"strings"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
)

// tinyEnv keeps tests fast: short samples, tiny ensembles.
func tinyEnv() Env {
	e := DefaultEnv()
	e.SampleOps = 20_000
	if raceEnabled {
		e.SampleOps = 4_000
	}
	return e
}

func tinyPipelineOptions() PipelineOptions {
	opts := DefaultPipelineOptions()
	opts.Env = tinyEnv()
	opts.Collect = core.CollectOptions{
		Workloads: core.RRs(0, 0.1, 0.3, 0.5, 0.7, 0.9, 1),
		Configs:   10,
		Seed:      3,
	}
	opts.Model = nn.ModelConfig{
		Hidden:        []int{10, 4},
		EnsembleSize:  4,
		PruneFraction: 0.25,
		Trainer:       nn.TrainerBR,
		BR:            nn.BROptions{Epochs: 30, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:          4,
	}
	gaOpts := ga.DefaultOptions()
	gaOpts.Population = 24
	gaOpts.Generations = 20
	gaOpts.Seed = 5
	opts.GA = gaOpts
	if raceEnabled {
		// Same workload/config counts (tests assert dataset shape);
		// cheaper per-sample, training, and search budgets.
		opts.Model.EnsembleSize = 3
		opts.Model.BR.Epochs = 15
		opts.GA.Population = 16
		opts.GA.Generations = 10
	}
	return opts
}

var sharedPipeline *Pipeline

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	if sharedPipeline != nil {
		return sharedPipeline
	}
	p, err := NewCassandraPipeline(tinyPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	sharedPipeline = p
	return p
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
	}
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") {
		t.Errorf("render missing pieces:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestReportRender(t *testing.T) {
	r := Report{
		ID:    "x",
		Title: "demo report",
		Tables: []Table{
			{Header: []string{"h"}, Rows: [][]string{{"v"}}},
		},
		Notes:  []string{"a note"},
		Claims: []Claim{claim(true, "%d holds", 1), claim(false, "two"), gate(false, "three")},
	}
	out := r.Render()
	for _, want := range []string{"== x: demo report ==", "note: a note", "h", "v",
		"claim holds: 1 holds", "claim FAILS: two", "gate FAILS: three"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEnvValidate(t *testing.T) {
	if err := DefaultEnv().Validate(); err != nil {
		t.Errorf("default env invalid: %v", err)
	}
	bad := DefaultEnv()
	bad.SampleOps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ops should error")
	}
	bad = DefaultEnv()
	bad.KRDFraction = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative KRD fraction should error")
	}
	bad = DefaultEnv()
	bad.PreloadVersions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero preload should error")
	}
}

func TestCassandraSampleDeterminism(t *testing.T) {
	env := tinyEnv()
	a, err := env.Sample(core.RR(0.5), config.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Sample(core.RR(0.5), config.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced %v vs %v", a, b)
	}
	c, err := env.Sample(core.RR(0.5), config.Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds should perturb the sample")
	}
}

func TestGridConfigsCount(t *testing.T) {
	grid := GridConfigs()
	if len(grid) != 80 {
		t.Fatalf("grid has %d configs, want 80 (Section 4.8)", len(grid))
	}
	space := config.Cassandra()
	for i, cfg := range grid {
		if err := space.Validate(cfg); err != nil {
			t.Errorf("grid config %d invalid: %v", i, err)
		}
	}
}

func TestScyllaGridCount(t *testing.T) {
	space := config.ScyllaDB()
	grid := scyllaGrid()
	if len(grid) != 80 {
		t.Fatalf("scylla grid has %d configs, want 80", len(grid))
	}
	for i, cfg := range grid {
		if err := space.Validate(cfg); err != nil {
			t.Errorf("grid config %d invalid: %v", i, err)
		}
	}
}

// fakeCollector is an analytic collector for search tests.
func fakeCollector() core.Collector {
	space := config.Cassandra()
	return core.CollectorFunc(func(_ core.Workload, cfg config.Config, seed int64) (float64, error) {
		cw, err := space.Value(cfg, config.ParamConcurrentWrites)
		if err != nil {
			return 0, err
		}
		mt, err := space.Value(cfg, config.ParamMemtableCleanup)
		if err != nil {
			return 0, err
		}
		return 100000 - (cw-64)*(cw-64) - 100000*(mt-0.3)*(mt-0.3), nil
	})
}

func TestGridSearch(t *testing.T) {
	res, err := GridSearch(fakeCollector(), core.RR(0.5), GridConfigs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 80 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.Best[config.ParamConcurrentWrites] != 64 {
		t.Errorf("grid best CW = %v, want 64", res.Best[config.ParamConcurrentWrites])
	}
	if _, err := GridSearch(fakeCollector(), core.RR(0.5), nil, 1); err == nil {
		t.Error("empty grid should error")
	}
}

func TestGreedySearch(t *testing.T) {
	res, err := GreedySearch(fakeCollector(), config.Cassandra(), core.RR(0.5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Error("greedy used no samples")
	}
	if res.BestThroughput < 99000 {
		t.Errorf("greedy best %v too low on separable function", res.BestThroughput)
	}
}

func TestRandomSearch(t *testing.T) {
	res, err := RandomSearch(fakeCollector(), config.Cassandra(), core.RR(0.5), 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 30 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.Best == nil {
		t.Error("no best found")
	}
	if _, err := RandomSearch(fakeCollector(), config.Cassandra(), core.RR(0.5), 0, 3); err == nil {
		t.Error("n=0 should error")
	}
}

func TestFigure3(t *testing.T) {
	rep, err := Figure3(tinyEnv())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "figure3" || len(rep.Tables) != 2 {
		t.Errorf("report shape: %+v", rep.ID)
	}
	out := rep.Render()
	if !strings.Contains(out, "read-heavy fraction") {
		t.Errorf("missing stats:\n%s", out)
	}
}

func TestPipelineAndFigure4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	if got := len(p.Dataset().Samples); got != 70 {
		t.Fatalf("dataset size = %d, want 70", got)
	}
	rep, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 7 {
		t.Errorf("figure4 rows = %d", len(rep.Tables[0].Rows))
	}
	if !strings.Contains(rep.Render(), "rafiki") {
		t.Error("render missing rafiki column")
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Errorf("table1 rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestTable2AndHistogramsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Errorf("table2 rows = %d", len(rep.Tables[0].Rows))
	}
	h8, err := Figure8(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h8.Render(), "mean absolute error") {
		t.Error("figure8 missing summary")
	}
}

func TestFigure10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("variance experiment is slow")
	}
	rep, err := Figure10(tinyEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 || len(rep.Tables[0].Rows) != 2 {
		t.Errorf("figure10 shape wrong")
	}
}

func TestTable4RequiresScyllaPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	if _, err := Table4(p); err == nil {
		t.Error("Table4 on a Cassandra pipeline should error")
	}
}

func TestLatencyCollector(t *testing.T) {
	env := tinyEnv()
	inv, err := env.InverseP99().Sample(core.RR(0.5), config.Config{}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if inv <= 0 {
		t.Fatalf("inverse p99 = %v", inv)
	}
	// Little's law sanity: p99 latency must be at least
	// clients/throughput of the mean epoch.
	tput, err := env.Sample(core.RR(0.5), config.Config{}, 31)
	if err != nil {
		t.Fatal(err)
	}
	p99 := 1 / inv
	meanLatency := 64 / tput
	if p99 < meanLatency*0.8 {
		t.Errorf("p99 %.6fs below mean latency %.6fs", p99, meanLatency)
	}
}

func TestAblationModelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := AblationModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Errorf("ablation-model rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestAblationSurrogateSearchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := AblationSurrogateSearch(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Errorf("ablation-surrogate-search rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestCrossWorkloadPenaltySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := CrossWorkloadPenalty(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Errorf("crossworkload rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestDynamicTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := DynamicTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Errorf("dynamic rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestFigure5And6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiments are slow")
	}
	env := tinyEnv()
	rep5, err := Figure5(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep5.Tables[0].Rows) == 0 {
		t.Error("figure5 has no ranking rows")
	}
	rep6, err := Figure6(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep6.Tables) != 2 {
		t.Error("figure6 should render two tables")
	}
}

func TestFigure7And9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep7, err := Figure7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep7.Tables[0].Rows) != 5 {
		t.Errorf("figure7 rows = %d", len(rep7.Tables[0].Rows))
	}
	rep9, err := Figure9(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep9.Render(), "mean absolute error") {
		t.Error("figure9 missing summary")
	}
}

func TestSearchSpeedAndTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := SearchSpeed(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Render(), "speedup") {
		t.Error("searchspeed missing speedup row")
	}
	rep3, err := Table3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Tables[0].Rows) != 3 {
		t.Errorf("table3 rows = %d", len(rep3.Tables[0].Rows))
	}
}

func TestAblationSearchAndTrainerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	p := testPipeline(t)
	rep, err := AblationSearch(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Errorf("ablation-search rows = %d", len(rep.Tables[0].Rows))
	}
	rep2, err := AblationTrainer(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Tables[0].Rows) != 4 {
		t.Errorf("ablation-trainer rows = %d", len(rep2.Tables[0].Rows))
	}
}

func TestScyllaPipelineAndTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scylla pipeline smoke test is slow")
	}
	opts := tinyPipelineOptions()
	opts.Collect.Workloads = core.RRs(0.3, 0.7, 1)
	opts.Collect.Configs = 8
	sp, err := NewScyllaPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Table4(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 2 {
		t.Errorf("table4 rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestClusterSampleSmoke(t *testing.T) {
	env := tinyEnv()
	tput, err := env.OnCluster(2, 2).Sample(core.RR(0.5), config.Config{}, 71)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Error("no cluster throughput")
	}
}

func TestScyllaSampleSmoke(t *testing.T) {
	env := tinyEnv()
	env.Space = config.ScyllaDB()
	tput, err := env.Sample(core.RR(0.5), config.Config{}, 72)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Error("no scylla throughput")
	}
}
