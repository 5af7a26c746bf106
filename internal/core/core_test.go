package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rafiki/internal/anova"
	"rafiki/internal/config"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
)

// analyticCollector is a fast synthetic datastore: throughput is a
// smooth non-linear function of the workload and key parameters, with
// an interior optimum that moves with the read ratio — enough structure
// to exercise the whole pipeline deterministically.
func analyticCollector(space *config.Space) Collector {
	return CollectorFunc(func(w Workload, cfg config.Config, seed int64) (float64, error) {
		rr := w.ReadRatio
		get := func(name string) float64 {
			v, err := space.Value(cfg, name)
			if err != nil {
				return 0
			}
			return v
		}
		cm := get(config.ParamCompactionStrategy)
		cw := get(config.ParamConcurrentWrites)
		fcz := get(config.ParamFileCacheSize)
		mt := get(config.ParamMemtableCleanup)
		cc := get(config.ParamConcurrentCompactors)

		base := 60000.0
		// Leveled helps reads, hurts writes.
		base += 15000 * (cm*rr - cm*(1-rr))
		// Concurrent writes: interior optimum near 64 for write share.
		base -= 4 * (1 - rr) * (cw - 64) * (cw - 64) / 10
		// File cache: diminishing returns on reads, slight write cost.
		base += 12000 * rr * math.Log1p(fcz/256) / math.Log1p(8)
		base -= 2000 * (1 - rr) * fcz / 2048
		// Memtable threshold: interior optimum at 0.3.
		base -= 30000 * (mt - 0.3) * (mt - 0.3)
		// Compactors: small effect.
		base += 500 * math.Log1p(cc)
		// Deterministic noise per (rr, seed).
		rng := rand.New(rand.NewSource(seed))
		base *= 1 + 0.01*rng.NormFloat64()
		if base < 1000 {
			base = 1000
		}
		return base, nil
	})
}

func fastModelConfig() nn.ModelConfig {
	return nn.ModelConfig{
		Hidden:        []int{10, 4},
		EnsembleSize:  4,
		PruneFraction: 0.25,
		Trainer:       nn.TrainerBR,
		BR:            nn.BROptions{Epochs: 60, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:          3,
	}
}

func fastGAOptions() ga.Options {
	opts := ga.DefaultOptions()
	opts.Population = 30
	opts.Generations = 30
	opts.Seed = 5
	return opts
}

func TestSampleConfigsCoverage(t *testing.T) {
	space := config.Cassandra()
	configs, err := SampleConfigs(space, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 20 {
		t.Fatalf("got %d configs", len(configs))
	}
	if len(configs[0]) != 0 {
		t.Error("first config should be the default (empty overrides)")
	}
	keys, err := space.KeyParams()
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.5: every key parameter's min and max occur at least once.
	for _, p := range keys {
		var sawMin, sawMax bool
		for _, cfg := range configs {
			v, err := space.Value(cfg, p.Name)
			if err != nil {
				t.Fatal(err)
			}
			if v == p.Min {
				sawMin = true
			}
			if v == p.Max {
				sawMax = true
			}
		}
		if !sawMin || !sawMax {
			t.Errorf("parameter %s: min seen %v, max seen %v", p.Name, sawMin, sawMax)
		}
	}
	// Every generated config must validate.
	for i, cfg := range configs {
		if err := space.Validate(cfg); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
}

func TestSampleConfigsErrors(t *testing.T) {
	if _, err := SampleConfigs(config.Cassandra(), 0, 1); err == nil {
		t.Error("zero configs should error")
	}
}

func TestCollectShapes(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 0.5, 1),
		Configs:   4,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 12 {
		t.Fatalf("samples = %d, want 12", len(ds.Samples))
	}
	if got := len(ds.Workloads()); got != 3 {
		t.Errorf("distinct workloads = %d", got)
	}
	if got := len(ds.ConfigKeys(space)); got != 4 {
		t.Errorf("distinct configs = %d", got)
	}
	xs, ys, err := ds.Features(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 12 || len(ys) != 12 || len(xs[0]) != 1+5 {
		t.Errorf("feature shapes: %d x %d", len(xs), len(xs[0]))
	}
}

// TestFeaturesWidthFollowsScans: a row carries the scan ratio only when
// some sample in the dataset has scans, and then every row does.
func TestFeaturesWidthFollowsScans(t *testing.T) {
	space := config.Cassandra()
	keys := len(space.KeyNames)
	for _, tc := range []struct {
		name      string
		workloads []Workload
		width     int
	}{
		{"rr only", RRs(0.1, 0.9), 1 + keys},
		{"with scans", []Workload{RR(0.1), {ReadRatio: 0.9, ScanRatio: 0.2}}, 2 + keys},
	} {
		var ds Dataset
		for _, w := range tc.workloads {
			ds.Samples = append(ds.Samples, Sample{Workload: w, Config: config.Config{}, Throughput: 1})
		}
		xs, _, err := ds.Features(space)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			if len(x) != tc.width {
				t.Errorf("%s: row %d is %d wide, want %d", tc.name, i, len(x), tc.width)
			}
		}
	}
}

// TestPreparedSurrogateHasPaperShape: the paper's pipeline, RR-only
// windows and five key parameters, prepares a [6 → 14 → 4 → 1]
// surrogate, 163 weights per member.
func TestPreparedSurrogateHasPaperShape(t *testing.T) {
	space := config.Cassandra()
	model := nn.DefaultModelConfig()
	model.EnsembleSize = 2
	model.BR.Epochs = 3
	tuner, err := NewTuner(analyticCollector(space), space, TunerOptions{
		SkipIdentify: true,
		Collect:      CollectOptions{Workloads: RRs(0.1, 0.5, 0.9), Configs: 8, Seed: 4},
		Model:        model,
		GA:           fastGAOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Prepare(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tuner.Surrogate().Model)
	if err != nil {
		t.Fatal(err)
	}
	var saved struct {
		Nets []struct {
			Sizes   []int
			Weights []float64
		}
	}
	if err := json.Unmarshal(blob, &saved); err != nil {
		t.Fatal(err)
	}
	if len(saved.Nets) == 0 {
		t.Fatal("prepared surrogate has no members")
	}
	for i, net := range saved.Nets {
		if !reflect.DeepEqual(net.Sizes, []int{6, 14, 4, 1}) || len(net.Weights) != 163 {
			t.Errorf("member %d is %v with %d weights, want [6 14 4 1] with 163", i, net.Sizes, len(net.Weights))
		}
	}
}

func TestCollectDropRate(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 0.5, 1),
		Configs:   10,
		Seed:      3,
		DropRate:  0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dropped == 0 {
		t.Error("expected some dropped samples")
	}
	if len(ds.Samples)+ds.Dropped != 30 {
		t.Errorf("samples %d + dropped %d != 30", len(ds.Samples), ds.Dropped)
	}
}

func TestCollectValidation(t *testing.T) {
	space := config.Cassandra()
	c := analyticCollector(space)
	if _, err := Collect(c, space, CollectOptions{Configs: 2}); err == nil {
		t.Error("no workloads should error")
	}
	if _, err := Collect(c, space, CollectOptions{Workloads: RRs(2), Configs: 2}); err == nil {
		t.Error("bad workload should error")
	}
	if _, err := Collect(c, space, CollectOptions{Workloads: RRs(0.5), Configs: 2, DropRate: 1}); err == nil {
		t.Error("drop rate 1 should error")
	}
}

func TestDatasetSplits(t *testing.T) {
	space := config.Cassandra()
	ds, err := Collect(analyticCollector(space), space, CollectOptions{
		Workloads: RRs(0, 0.5, 1),
		Configs:   4,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.SplitByWorkload(map[Workload]bool{RR(0.5): true})
	if len(test.Samples) != 4 || len(train.Samples) != 8 {
		t.Errorf("workload split: %d train, %d test", len(train.Samples), len(test.Samples))
	}
	for _, s := range test.Samples {
		if s.Workload.ReadRatio != 0.5 {
			t.Error("test split contains wrong workload")
		}
	}

	keys := ds.ConfigKeys(space)
	train, test = ds.SplitByConfig(space, map[string]bool{keys[0]: true})
	if len(test.Samples) != 3 || len(train.Samples) != 9 {
		t.Errorf("config split: %d train, %d test", len(train.Samples), len(test.Samples))
	}
}

func TestFeaturesEmptyDataset(t *testing.T) {
	var ds Dataset
	if _, _, err := ds.Features(config.Cassandra()); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestIdentifyKeyParametersOnAnalytic(t *testing.T) {
	space := config.Cassandra()
	id, err := IdentifyKeyParameters(analyticCollector(space), space, IdentifyOptions{
		ReadRatio: 0.5,
		MinK:      3,
		MaxK:      8,
		Repeats:   1,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Ranking.Entries) < 20 {
		t.Errorf("ranking covers %d parameters, want all sweepable ones", len(id.Ranking.Entries))
	}
	if len(id.KeyNames) < 3 || len(id.KeyNames) > 8 {
		t.Errorf("selected %d key parameters", len(id.KeyNames))
	}
	// The analytic collector's strongest factors must rank above the
	// no-effect parameters.
	rankOf := func(name string) int {
		for i, e := range id.Ranking.Entries {
			if e.Factor == name {
				return i
			}
		}
		return -1
	}
	if r := rankOf(config.ParamMemtableCleanup); r > 6 {
		t.Errorf("memtable_cleanup_threshold ranked %d, want near top", r)
	}
	if r := rankOf(config.ParamBatchSizeWarn); r < 8 {
		t.Errorf("no-effect parameter ranked %d, implausibly high", r)
	}
}

func TestIdentifyValidation(t *testing.T) {
	space := config.Cassandra()
	if _, err := IdentifyKeyParameters(analyticCollector(space), space, IdentifyOptions{ReadRatio: 2}); err == nil {
		t.Error("bad read ratio should error")
	}
	boom := CollectorFunc(func(Workload, config.Config, int64) (float64, error) {
		return 0, errors.New("boom")
	})
	if _, err := IdentifyKeyParameters(boom, space, DefaultIdentifyOptions()); err == nil {
		t.Error("collector error should propagate")
	}
}

func TestEndToEndTunerOnAnalytic(t *testing.T) {
	space := config.Cassandra()
	c := analyticCollector(space)
	opts := TunerOptions{
		SkipIdentify: true,
		Collect: CollectOptions{
			Workloads: RRs(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1),
			Configs:   20,
			Seed:      6,
		},
		Model: fastModelConfig(),
		GA:    fastGAOptions(),
	}
	tuner, err := NewTuner(c, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Recommend(RR(0.5)); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("Recommend before Prepare = %v, want ErrNotPrepared", err)
	}
	if err := tuner.Prepare(); err != nil {
		t.Fatal(err)
	}
	if got := len(tuner.Dataset().Samples); got != 220 {
		t.Errorf("dataset size = %d, want 220", got)
	}

	rec, err := tuner.Recommend(RR(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Validate(rec.Config); err != nil {
		t.Errorf("recommended config invalid: %v", err)
	}
	// The recommendation must beat the default configuration according
	// to the ground-truth analytic function.
	defTput, err := c.Sample(RR(0.9), config.Config{}, 999)
	if err != nil {
		t.Fatal(err)
	}
	recTput, err := c.Sample(RR(0.9), rec.Config, 999)
	if err != nil {
		t.Fatal(err)
	}
	if recTput <= defTput {
		t.Errorf("recommendation (%v) does not beat default (%v)", recTput, defTput)
	}
	// Read-heavy tuning should choose leveled compaction.
	if rec.Config[config.ParamCompactionStrategy] != config.CompactionLeveled {
		t.Errorf("read-heavy recommendation uses %v, want Leveled", rec.Config[config.ParamCompactionStrategy])
	}
	if rec.Evaluations < 500 {
		t.Errorf("GA used only %d evaluations", rec.Evaluations)
	}

	if _, err := tuner.Recommend(RR(1.5)); err == nil {
		t.Error("bad read ratio should error")
	}
}

func TestNewTunerValidation(t *testing.T) {
	space := config.Cassandra()
	if _, err := NewTuner(nil, space, DefaultTunerOptions()); err == nil {
		t.Error("nil collector should error")
	}
	if _, err := NewTuner(analyticCollector(space), nil, DefaultTunerOptions()); err == nil {
		t.Error("nil space should error")
	}
}

// TestNewTunerRejectsBadGA: a search Recommend could never run is an
// error at construction, before Prepare spends its samples.
func TestNewTunerRejectsBadGA(t *testing.T) {
	space := config.Cassandra()
	opts := DefaultTunerOptions()
	opts.GA.TournamentK = 0
	if _, err := NewTuner(analyticCollector(space), space, opts); err == nil {
		t.Error("TournamentK 0 should error")
	}
	opts = DefaultTunerOptions()
	opts.GA.MutationProb = 1.5
	if _, err := NewTuner(analyticCollector(space), space, opts); err == nil {
		t.Error("MutationProb 1.5 should error")
	}
}

func TestSelectKeyNamesGroupConsolidation(t *testing.T) {
	space := config.Cassandra()
	// Build a synthetic ranking where two memtable-flush-group members
	// outrank the group's designated representative.
	sweeps := map[string][][]float64{
		config.ParamCompactionStrategy:   {{100}, {200}}, // top
		config.ParamMemtableHeapSpace:    {{100}, {190}}, // group member
		config.ParamMemtableOffheapSpace: {{100}, {185}}, // group member
		config.ParamMemtableCleanup:      {{100}, {150}}, // group representative
		config.ParamConcurrentWrites:     {{100}, {140}},
		config.ParamKeyCacheSize:         {{100}, {101}},
	}
	ranking, err := anova.Rank(sweeps)
	if err != nil {
		t.Fatal(err)
	}
	got := selectKeyNames(space, ranking, 3)
	want := []string{
		config.ParamCompactionStrategy,
		config.ParamMemtableCleanup, // substituted for memtable_heap_space
		config.ParamConcurrentWrites,
	}
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
	}
}

func TestDedupeRankingCollapsesGroups(t *testing.T) {
	space := config.Cassandra()
	sweeps := map[string][][]float64{
		config.ParamMemtableHeapSpace:    {{100}, {190}},
		config.ParamMemtableOffheapSpace: {{100}, {185}},
		config.ParamMemtableCleanup:      {{100}, {150}},
		config.ParamKeyCacheSize:         {{100}, {120}},
	}
	ranking, err := anova.Rank(sweeps)
	if err != nil {
		t.Fatal(err)
	}
	deduped := dedupeRanking(space, ranking)
	// The three memtable-flush parameters collapse to one entry.
	if len(deduped.Entries) != 2 {
		t.Fatalf("deduped entries = %d, want 2", len(deduped.Entries))
	}
	if deduped.Entries[0].Factor != config.ParamMemtableHeapSpace {
		t.Errorf("group kept %q, want its highest-variance member", deduped.Entries[0].Factor)
	}
}

// TestOptimizeRunsTheSurrogateProblem: Optimize is ga.Run over
// Surrogate.Problem and nothing else, so another searcher handed the
// same problem searches exactly what a recommendation searches.
func TestOptimizeRunsTheSurrogateProblem(t *testing.T) {
	sur := preparedTuner(t).Surrogate()
	w := RR(0.3)
	opts := fastGAOptions()
	rec, err := sur.Optimize(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	problem, err := sur.Problem(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run(problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sur.Space.ConfigFromVector(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, OptimizeResult{Config: cfg, Predicted: res.BestFitness, Evaluations: res.Evaluations, History: res.History}) {
		t.Errorf("Optimize recommended %+v, ga.Run over Problem found %+v", rec, res)
	}
	// The scalar fallback scores a candidate as the batch path does.
	one, err := problem.Fitness(res.Best)
	if err != nil || one != res.BestFitness {
		t.Errorf("Fitness(best) = %v, %v; the batch path scored it %v", one, err, res.BestFitness)
	}
}
