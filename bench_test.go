package rafiki_test

// One sub-benchmark per table and figure of the paper's evaluation
// section, plus micro-benchmarks of the load-bearing components. Each
// experiment benchmark regenerates the corresponding artifact and
// prints it once; expensive offline state (the collected dataset and
// trained surrogate) is shared across benchmarks through the suite's
// lazily-built pipelines.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rafiki/internal/anova"
	"rafiki/internal/bench"
	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
	"rafiki/internal/nosql"
	"rafiki/internal/workload"
)

// benchEnv sizes experiment benchmarks; smaller samples than the
// experiment CLI keep `go test -bench=.` in the minutes range.
func benchEnv() bench.Env {
	env := bench.DefaultEnv()
	env.SampleOps = 50_000
	return env
}

func benchPipelineOptions() bench.PipelineOptions {
	opts := bench.DefaultPipelineOptions()
	opts.Env = benchEnv()
	opts.Model.BR.Epochs = 40
	return opts
}

// benchSuite is shared by every benchmark in the file: the two
// pipelines are built the first time one is asked for.
var benchSuite = &bench.Suite{Opts: benchPipelineOptions()}

func cassandraPipeline(b *testing.B) *bench.Pipeline {
	b.Helper()
	p, err := benchSuite.Cassandra()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Paper artifacts -------------------------------------------------

// BenchmarkExperiments has one sub-benchmark per row of
// bench.Experiments() that is not opt-in: -bench 'Experiments/table1$'
// regenerates Table 1.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		if e.OptIn {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(benchSuite)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					fmt.Println(rep.Render())
				}
			}
		})
	}
}

// --- Micro-benchmarks ------------------------------------------------

// warmEngine is a preloaded engine in its serving steady state: a mixed
// warm-up has filled the block cache and digested the first flushes.
func warmEngine(tb testing.TB) *nosql.Engine {
	tb.Helper()
	e, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	e.Preload(3)
	rng := rand.New(rand.NewSource(2))
	n := int64(e.KeySpace())
	for i := 0; i < 50_000; i++ {
		k := uint64(rng.Int63n(n))
		switch i % 4 {
		case 0, 1:
			e.Read(k)
		case 2:
			e.Write(k)
		case 3:
			e.Delete(k)
		}
	}
	e.FinishEpoch()
	return e
}

// epochStore drives an engine whose own epochs never close (EpochOps
// too large to reach) as a default engine runs: it closes one every 1024
// ops, so flushes and compactions progress on the usual schedule.
type epochStore struct {
	*nosql.Engine
	ops int
}

func (s *epochStore) tick() {
	if s.ops++; s.ops == 1024 {
		s.ops = 0
		s.FinishEpoch()
	}
}

func (s *epochStore) Read(k uint64)                  { s.Engine.Read(k); s.tick() }
func (s *epochStore) Write(k uint64)                 { s.Engine.Write(k); s.tick() }
func (s *epochStore) Delete(k uint64)                { s.Engine.Delete(k); s.tick() }
func (s *epochStore) WriteTTL(k uint64, ttl float64) { s.Engine.WriteTTL(k, ttl); s.tick() }
func (s *epochStore) Scan(start uint64, limit int) int {
	n := s.Engine.Scan(start, limit)
	s.tick()
	return n
}

// deepEngine is an engine in rafikibench engine_crud_scan's shape: 800 k
// ops of that workload's CRUD + scan + TTL mix leave about 20
// overlapping size-tiered tables, and a Zipfian read finds its key in
// about 18 of them (3.3 block reads from disk). Once warm, its epochs
// stop closing, so no flush or compaction reshapes the tables the timed
// reads probe.
func deepEngine(tb testing.TB) *nosql.Engine {
	tb.Helper()
	e, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: 1, EpochOps: 1 << 40})
	if err != nil {
		tb.Fatal(err)
	}
	e.Preload(3)
	_, err = workload.Run(&epochStore{Engine: e}, workload.Spec{
		Mix:     workload.Mix{Read: .53, Update: .28, Insert: .10, Delete: .07, Scan: .02},
		ScanLen: 64, Distribution: workload.DistZipfian, TTLFraction: .1, TTLSeconds: 30,
		Ops: 800_000, Seed: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// engineOps are BenchmarkEngineOp's rows; each builds the op it times
// on a warm engine, or on a deepEngine when deep is set. scan walks a
// quiescent engine; scan_mixed is a write and then a scan, the
// interleaving a CRUD mix produces, under which the memtable's key order
// is stale before every scan. scan_deep is scan over a deep engine's
// ~20 tables; read_deep reads Zipfian keys, as engine_crud_scan does,
// where most tables hold the key.
var engineOps = []struct {
	name string
	deep bool
	op   func(e *nosql.Engine, rng *rand.Rand) func()
}{
	{"read", false, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() { e.Read(uint64(rng.Int63n(n))) }
	}},
	{"update", false, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() { e.Write(uint64(rng.Int63n(n))) }
	}},
	{"insert", false, func(e *nosql.Engine, _ *rand.Rand) func() {
		next := uint64(e.KeySpace())
		return func() { e.Write(next); next++ }
	}},
	{"delete", false, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() { e.Delete(uint64(rng.Int63n(n))) }
	}},
	{"scan", false, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() { e.Scan(uint64(rng.Int63n(n)), 64) }
	}},
	{"scan_mixed", false, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() {
			e.Write(uint64(rng.Int63n(n)))
			e.Scan(uint64(rng.Int63n(n)), 64)
		}
	}},
	{"scan_deep", true, func(e *nosql.Engine, rng *rand.Rand) func() {
		n := int64(e.KeySpace())
		return func() { e.Scan(uint64(rng.Int63n(n)), 64) }
	}},
	{"read_deep", true, func(e *nosql.Engine, rng *rand.Rand) func() {
		keys, err := workload.NewZipfKeyGenerator(e.KeySpace(), 1.4, rng.Int63())
		if err != nil {
			panic(err)
		}
		return func() { e.Read(keys.Next()) }
	}},
}

// engineFor builds the engine a BenchmarkEngineOp row runs on.
func engineFor(tb testing.TB, deep bool) *nosql.Engine {
	if deep {
		return deepEngine(tb)
	}
	return warmEngine(tb)
}

// BenchmarkEngineOp times each engine op type on a warm preloaded
// engine. Every row gets its own engine: inserts and deletes change the
// key population the rows after them would otherwise measure.
func BenchmarkEngineOp(b *testing.B) {
	for _, row := range engineOps {
		b.Run(row.name, func(b *testing.B) {
			op := row.op(engineFor(b, row.deep), rand.New(rand.NewSource(3)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkEngineMixedWorkload(b *testing.B) {
	eng, err := nosql.New(nosql.Options{Space: config.Cassandra(), Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	eng.Preload(3)
	gen, err := workload.NewKeyGenerator(eng.KeySpace(), float64(eng.KeySpace())/2, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := gen.Next()
		if rng.Float64() < 0.5 {
			eng.Read(key)
		} else {
			eng.Write(key)
		}
	}
}

func BenchmarkKeyGenerator(b *testing.B) {
	gen, err := workload.NewKeyGenerator(1_000_000, 10_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkSurrogatePredict(b *testing.B) {
	// Section 4.8 prices one surrogate call at ~45us on 2017 hardware;
	// this measures ours.
	p := cassandraPipeline(b)
	cfg := p.Space().Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Surrogate().Predict(core.RR(0.7), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGASearch(b *testing.B) {
	// The paper's full online search: ~1.8s with ~3,350 evaluations.
	p := cassandraPipeline(b)
	opts := ga.DefaultOptions()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := p.Surrogate().Optimize(core.RR(0.7), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBRSingleNet(b *testing.B) {
	p := cassandraPipeline(b)
	xs, ys, err := p.Dataset().Features(p.Space())
	if err != nil {
		b.Fatal(err)
	}
	cfg := nn.ModelConfig{
		Hidden:       []int{14, 4},
		EnsembleSize: 1,
		Trainer:      nn.TrainerBR,
		BR:           nn.BROptions{Epochs: 40, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := nn.Fit(xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkANOVARank(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	sweeps := make(map[string][][]float64, 25)
	for p := 0; p < 25; p++ {
		groups := make([][]float64, 4)
		for g := range groups {
			groups[g] = []float64{50000 + rng.Float64()*20000}
		}
		sweeps[fmt.Sprintf("param_%02d", p)] = groups
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anova.Rank(sweeps); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Offline pipeline stages -----------------------------------------

// pipelineStages are BenchmarkPipelineStage's rows: each prepares its
// input outside the timer and returns the stage, one call of its public
// function, under a worker bound (0 = one per CPU). Train and search
// take their dataset and surrogate from the shared suite pipeline.
var pipelineStages = []struct {
	name    string
	prepare func(b *testing.B, opts bench.PipelineOptions) func(workers int) error
}{
	{"identify", func(_ *testing.B, opts bench.PipelineOptions) func(int) error {
		return func(workers int) error {
			// IdentifyKeyParameters takes no worker bound, it fans out
			// one sample per CPU: one P is what serialises it.
			if workers == 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			_, err := core.IdentifyKeyParameters(opts.Env.Sampler, config.Cassandra(), opts.Identify)
			return err
		}
	}},
	{"collect", func(_ *testing.B, opts bench.PipelineOptions) func(int) error {
		return func(workers int) error {
			opts.Collect.Workers = workers
			_, err := core.Collect(opts.Env.Sampler, config.Cassandra(), opts.Collect)
			return err
		}
	}},
	{"train", func(b *testing.B, opts bench.PipelineOptions) func(int) error {
		p := cassandraPipeline(b)
		return func(workers int) error {
			opts.Model.Workers = workers
			_, err := core.TrainSurrogate(p.Dataset(), p.Space(), opts.Model)
			return err
		}
	}},
	{"search", func(b *testing.B, opts bench.PipelineOptions) func(int) error {
		sur := cassandraPipeline(b).Surrogate()
		return func(workers int) error {
			defer func(prev int) { sur.Model.Workers = prev }(sur.Model.Workers)
			sur.Model.Workers = workers
			// The paper's workload sweep, one GA run per read ratio.
			for _, rr := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if _, err := sur.Optimize(core.RR(rr), opts.GA); err != nil {
					return err
				}
			}
			return nil
		}
	}},
}

// stageWorkers are the two lines of every stage: serial, and one worker
// per CPU. Their ratio is the stage's parallel speedup on this host.
var stageWorkers = []struct {
	label string
	n     int
}{{"1", 1}, {"max", 0}}

// BenchmarkPipelineStage times the four offline stages one at a time,
// sized like the pipeline the experiments prepare (60 LM epochs) at
// 60 000-op samples, the scale the stage trajectory was recorded at.
func BenchmarkPipelineStage(b *testing.B) {
	opts := bench.DefaultPipelineOptions()
	opts.Env.SampleOps = 60_000
	for _, st := range pipelineStages {
		b.Run(st.name, func(b *testing.B) {
			for _, w := range stageWorkers {
				b.Run("workers="+w.label, func(b *testing.B) {
					run := st.prepare(b, opts)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(w.n); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestBenchRowsSmoke pins the engine-op and stage rows the documents
// cite by name: each is still a sub-benchmark under that name, the
// committed BENCH.txt carries its line, and every engine op does work
// on a warm engine. The stage bodies are too slow for a test; `make
// bench-smoke` runs them once. The inference rows live in internal/nn,
// the file-cache miss row in internal/nosql, the sample row in
// internal/sim and the fork-join rows in internal/par, so only their
// BENCH.txt lines are checked here.
func TestBenchRowsSmoke(t *testing.T) {
	elsewhere := []string{
		"BenchmarkPredictBatch/rows=1",
		"BenchmarkPredictBatch/rows=48",
		"BenchmarkPredictBatch/rows=1024",
		"BenchmarkBlockCacheMiss",
		"BenchmarkSample",
		"BenchmarkDoRange/empty",
		"BenchmarkDoRange/brood",
	}
	want := []string{
		"BenchmarkEngineOp/read",
		"BenchmarkEngineOp/update",
		"BenchmarkEngineOp/insert",
		"BenchmarkEngineOp/delete",
		"BenchmarkEngineOp/scan",
		"BenchmarkEngineOp/scan_mixed",
		"BenchmarkEngineOp/scan_deep",
		"BenchmarkEngineOp/read_deep",
		"BenchmarkPipelineStage/identify/workers=1",
		"BenchmarkPipelineStage/identify/workers=max",
		"BenchmarkPipelineStage/collect/workers=1",
		"BenchmarkPipelineStage/collect/workers=max",
		"BenchmarkPipelineStage/train/workers=1",
		"BenchmarkPipelineStage/train/workers=max",
		"BenchmarkPipelineStage/search/workers=1",
		"BenchmarkPipelineStage/search/workers=max",
	}
	var rows []string
	for _, row := range engineOps {
		rows = append(rows, "BenchmarkEngineOp/"+row.name)
		e := engineFor(t, row.deep)
		warm := e.Clock()
		op := row.op(e, rand.New(rand.NewSource(3)))
		for i := 0; i < 100; i++ {
			op()
		}
		e.FinishEpoch()
		if warm <= 0 || e.Clock() <= warm {
			t.Errorf("%s: virtual clock %v after warm-up, %v after 100 ops", row.name, warm, e.Clock())
		}
	}
	for _, st := range pipelineStages {
		for _, w := range stageWorkers {
			rows = append(rows, "BenchmarkPipelineStage/"+st.name+"/workers="+w.label)
		}
	}
	if !slices.Equal(rows, want) {
		t.Errorf("sub-benchmarks are\n%q, the documented rows\n%q", rows, want)
	}

	blob, err := os.ReadFile("BENCH.txt")
	if err != nil {
		t.Fatal(err)
	}
	// A result line is "<name>[-GOMAXPROCS] <iterations> <value> ns/op ...".
	procs := regexp.MustCompile(`-\d+$`)
	recorded := make(map[string]bool)
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[3] == "ns/op" {
			recorded[procs.ReplaceAllString(f[0], "")] = true
		}
	}
	for _, name := range append(want, elsewhere...) {
		if !recorded[name] {
			t.Errorf("BENCH.txt has no line for %s: re-run `make bench`", name)
		}
	}
}
