// Command pipelinebench measures the tuning pipeline's serial-vs-
// parallel wall time and allocation volume stage by stage (key-
// parameter identification, data collection, ensemble training,
// surrogate-backed GA search), times every ensemble member's training
// on its own, and writes the result as JSON. It also re-checks, on
// every run, that the parallel pipeline is observationally identical
// to the serial one: the same key parameters, byte-identical trained
// models and identical GA recommendations.
//
// Usage:
//
//	pipelinebench [-out BENCH_pipeline.json] [-ops N] [-seed N] [-workers N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/ga"
	"rafiki/internal/nn"
	"rafiki/internal/obs"
	"rafiki/internal/par"
	"rafiki/internal/sim"
)

// stageResult is one stage's serial-vs-parallel measurement.
type stageResult struct {
	Name            string  `json:"name"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	SerialAllocs    uint64  `json:"serial_allocs"`
	ParallelAllocs  uint64  `json:"parallel_allocs"`
}

// memberResult is one ensemble member trained on its own, serially:
// where the train stage's time goes, member by member.
type memberResult struct {
	Member int `json:"member"`
	// Epochs is how many LM epochs ran before a stopping rule or the
	// cap; JacobianEvals how many Jacobian passes they took (one up
	// front, one per damping step tried).
	Epochs        int     `json:"epochs"`
	JacobianEvals int     `json:"jacobian_evals"`
	Seconds       float64 `json:"seconds"`
	MSE           float64 `json:"mse"`
	// Kept is false for the members the ensemble prunes (the worst 30 %
	// by training error).
	Kept bool `json:"kept"`
}

// report is the file this command writes.
type report struct {
	NumCPU     int   `json:"num_cpu"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	Workers    int   `json:"workers"`
	SampleOps  int   `json:"sample_ops"`
	Seed       int64 `json:"seed"`
	// ParallelComparable is false when GOMAXPROCS is 1: the "parallel"
	// runs then share one CPU, so their wall times measure scheduling
	// overhead, not speedup — the speedup fields are reported for
	// completeness but are not meaningful as a parallelism measurement.
	ParallelComparable bool          `json:"parallel_comparable"`
	Stages             []stageResult `json:"stages"`
	Pipeline           stageResult   `json:"pipeline"`
	// Members breaks the train stage down; the seconds sum to about the
	// stage's serial time.
	Members []memberResult `json:"train_members"`
	// Deterministic reports the inline cross-check: the parallel run
	// chose the same key parameters and produced a byte-identical model
	// and an identical recommendation, and the members trained one by
	// one are the ensemble's members.
	Deterministic bool `json:"deterministic"`
}

// oneAtATime runs a collector's samples one at a time whatever pool
// calls them. IdentifyKeyParameters always fans out one worker per CPU,
// so this is how its serial time is taken.
type oneAtATime struct {
	mu sync.Mutex
	c  core.Collector
}

func (o *oneAtATime) Sample(w core.Workload, cfg config.Config, seed int64) (float64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.c.Sample(w, cfg, seed)
}

// trainMembers trains each of cfg's ensemble members alone — under the
// BR trainer an ensemble of one seeded with nn.MemberSeed(seed, k) is
// member k — and marks the ones whose training summary the full model
// kept.
func trainMembers(xs [][]float64, ys []float64, cfg nn.ModelConfig, kept []nn.TrainResult) ([]memberResult, error) {
	members := make([]memberResult, cfg.EnsembleSize)
	for k := range members {
		reg := obs.NewRegistry()
		one := cfg
		one.EnsembleSize, one.PruneFraction, one.Workers = 1, 0, 1
		one.Seed = nn.MemberSeed(cfg.Seed, k)
		one.Obs = reg
		start := time.Now()
		model, err := nn.Fit(xs, ys, one)
		secs := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
		res := model.Results()[0]
		m := memberResult{Member: k, Epochs: res.Epochs, Seconds: secs, MSE: res.MSE}
		for _, sp := range reg.Snapshot().Spans {
			if sp.Name == "nn.epoch" {
				m.JacobianEvals = max(m.JacobianEvals, int(sp.End))
			}
		}
		for _, r := range kept {
			m.Kept = m.Kept || r == res
		}
		members[k] = m
	}
	return members, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipelinebench: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// measure runs f once and reports its wall time and heap allocation
// count (runtime.MemStats.Mallocs delta, after a fresh GC).
func measure(f func() error) (float64, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return secs, m1.Mallocs - m0.Mallocs, err
}

func stage(name string, serial, parallel func() error) (stageResult, error) {
	sSec, sAllocs, err := measure(serial)
	if err != nil {
		return stageResult{}, fmt.Errorf("%s serial: %w", name, err)
	}
	pSec, pAllocs, err := measure(parallel)
	if err != nil {
		return stageResult{}, fmt.Errorf("%s parallel: %w", name, err)
	}
	return stageResult{
		Name:            name,
		SerialSeconds:   sSec,
		ParallelSeconds: pSec,
		Speedup:         sSec / pSec,
		SerialAllocs:    sAllocs,
		ParallelAllocs:  pAllocs,
	}, nil
}

// writeAllocProfile dumps the post-GC allocation profile to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func run(args []string) error {
	fs := flag.NewFlagSet("pipelinebench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_pipeline.json", "output path for the JSON report")
		ops        = fs.Int("ops", 60_000, "operations per benchmark sample")
		seed       = fs.Int64("seed", 1, "base seed")
		workers    = fs.Int("workers", 0, "parallel worker bound (0 = one per CPU)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				log.Printf("cpuprofile: %v", cerr)
			}
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				log.Printf("cpuprofile: %v", cerr)
			}
		}()
	}
	if *memprofile != "" {
		// Written on every exit path (including a determinism failure)
		// so the profile of a failing run is still inspectable.
		defer func() {
			if err := writeAllocProfile(*memprofile); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	space := config.Cassandra()
	collector := sim.Default()
	collector.SampleOps = *ops
	collector.Seed = *seed
	collector.Space = space

	collectOpts := core.DefaultCollectOptions()
	modelCfg := nn.DefaultModelConfig()
	modelCfg.BR.Epochs = 60
	modelCfg.Seed = *seed + 41
	gaOpts := ga.DefaultOptions()
	gaOpts.Seed = *seed + 41

	rep := report{
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Workers:            par.Workers(*workers),
		SampleOps:          *ops,
		Seed:               *seed,
		ParallelComparable: runtime.GOMAXPROCS(0) > 1,
	}

	// Stage 1: key-parameter identification, the one-parameter-at-a-time
	// ANOVA sweep. Its outcome is checked, not fed forward: the later
	// stages keep config.Cassandra()'s key set, so their rows stay
	// comparable with earlier records.
	var serialID, parallelID core.Identification
	identifyRes, err := stage("identify",
		func() error {
			var err error
			serialID, err = core.IdentifyKeyParameters(&oneAtATime{c: collector}, space, core.DefaultIdentifyOptions())
			return err
		},
		func() error {
			var err error
			parallelID, err = core.IdentifyKeyParameters(collector, space, core.DefaultIdentifyOptions())
			return err
		})
	if err != nil {
		return err
	}
	deterministic := reflect.DeepEqual(serialID, parallelID)

	// Stage 2: data collection. Serial and parallel must produce the
	// same dataset; the serial one feeds the later stages.
	var serialDS, parallelDS core.Dataset
	collectRes, err := stage("collect",
		func() error {
			o := collectOpts
			o.Workers = 1
			var err error
			serialDS, err = core.Collect(collector, space, o)
			return err
		},
		func() error {
			o := collectOpts
			o.Workers = *workers
			var err error
			parallelDS, err = core.Collect(collector, space, o)
			return err
		})
	if err != nil {
		return err
	}
	deterministic = deterministic && reflect.DeepEqual(serialDS, parallelDS)

	// Stage 3: ensemble training.
	var serialSur, parallelSur *core.Surrogate
	trainRes, err := stage("train",
		func() error {
			cfg := modelCfg
			cfg.Workers = 1
			var err error
			serialSur, err = core.TrainSurrogate(serialDS, space, cfg)
			return err
		},
		func() error {
			cfg := modelCfg
			cfg.Workers = *workers
			var err error
			parallelSur, err = core.TrainSurrogate(serialDS, space, cfg)
			return err
		})
	if err != nil {
		return err
	}
	serialModel, err := json.Marshal(serialSur.Model)
	if err != nil {
		return err
	}
	parallelModel, err := json.Marshal(parallelSur.Model)
	if err != nil {
		return err
	}
	deterministic = deterministic && string(serialModel) == string(parallelModel)

	xs, ys, err := serialDS.Features(space)
	if err != nil {
		return err
	}
	rep.Members, err = trainMembers(xs, ys, modelCfg, serialSur.Model.Results())
	if err != nil {
		return err
	}
	kept := 0
	for _, m := range rep.Members {
		if m.Kept {
			kept++
		}
	}
	deterministic = deterministic && kept == serialSur.Model.Size()

	// Stage 4: surrogate-backed GA search across the paper's workload
	// sweep. The serial surrogate answers with one worker; the parallel
	// one fans batch predictions out.
	readRatios := []float64{0, 0.25, 0.5, 0.75, 1}
	var serialRecs, parallelRecs []core.OptimizeResult
	searchRes, err := stage("search",
		func() error {
			serialSur.Model.Workers = 1
			serialRecs = serialRecs[:0]
			for _, rr := range readRatios {
				rec, err := serialSur.Optimize(core.RR(rr), gaOpts)
				if err != nil {
					return err
				}
				serialRecs = append(serialRecs, rec)
			}
			return nil
		},
		func() error {
			parallelSur.Model.Workers = *workers
			parallelRecs = parallelRecs[:0]
			for _, rr := range readRatios {
				rec, err := parallelSur.Optimize(core.RR(rr), gaOpts)
				if err != nil {
					return err
				}
				parallelRecs = append(parallelRecs, rec)
			}
			return nil
		})
	if err != nil {
		return err
	}
	deterministic = deterministic && reflect.DeepEqual(serialRecs, parallelRecs)

	rep.Stages = []stageResult{identifyRes, collectRes, trainRes, searchRes}
	rep.Deterministic = deterministic
	for _, s := range rep.Stages {
		rep.Pipeline.SerialSeconds += s.SerialSeconds
		rep.Pipeline.ParallelSeconds += s.ParallelSeconds
		rep.Pipeline.SerialAllocs += s.SerialAllocs
		rep.Pipeline.ParallelAllocs += s.ParallelAllocs
	}
	rep.Pipeline.Name = "pipeline"
	rep.Pipeline.Speedup = rep.Pipeline.SerialSeconds / rep.Pipeline.ParallelSeconds

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	if !deterministic {
		return fmt.Errorf("parallel pipeline diverged from serial run (see %s)", *out)
	}
	if rep.ParallelComparable {
		log.Printf("wrote %s (pipeline speedup %.2fx on %d workers, deterministic)", *out, rep.Pipeline.Speedup, rep.Workers)
	} else {
		log.Printf("wrote %s (GOMAXPROCS=1: speedup not meaningful, parallel_comparable=false; deterministic)", *out)
	}
	return nil
}
