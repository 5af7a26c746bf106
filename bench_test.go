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
	"testing"

	"rafiki"
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

func BenchmarkEngineWrite(b *testing.B) {
	eng, err := rafiki.NewEngine(rafiki.EngineOptions{Space: rafiki.CassandraSpace(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keySpace := uint64(eng.KeySpace())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Write(uint64(i) % keySpace)
	}
}

func BenchmarkEngineRead(b *testing.B) {
	eng, err := rafiki.NewEngine(rafiki.EngineOptions{Space: rafiki.CassandraSpace(), Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	eng.Preload(3)
	keySpace := uint64(eng.KeySpace())
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Read(rng.Uint64() % keySpace)
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
