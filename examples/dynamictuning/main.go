// Dynamic tuning: replay an MG-RAST-like trace with abrupt regime
// switches against two live engines — one stuck on the default
// configuration, one driven by Rafiki's online controller that re-tunes
// whenever the observed read ratio shifts. This is the paper's
// motivating scenario (Sections 1 and 2.4.1): static configurations
// leave large gains on the table when workloads oscillate.
package main

import (
	"fmt"
	"log"

	"rafiki"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	space := rafiki.CassandraSpace()

	// Offline phase: train the surrogate once.
	collector := rafiki.NewSimulatorCollector(rafiki.SimulatorConfig{SampleOps: 50_000, Seed: 2})
	opts := rafiki.DefaultTunerOptions()
	opts.SkipIdentify = true
	opts.Collect.Configs = 12
	opts.Model.EnsembleSize = 6
	opts.Model.BR.Epochs = 60
	tuner, err := rafiki.NewTuner(collector, space, opts)
	if err != nil {
		return err
	}
	fmt.Println("training the surrogate (offline phase)...")
	if err := tuner.Prepare(); err != nil {
		return err
	}

	// A short trace: half a day of 15-minute windows.
	spec := rafiki.DefaultTraceSpec()
	spec.Days = 1
	trace, err := rafiki.SynthesizeTrace(spec)
	if err != nil {
		return err
	}
	trace = trace[:48]

	// The reactive and proactive controllers are the same loop; the
	// proactive one just has a forecaster in front.
	run := func(name string, makeCtrl func(eng *rafiki.Engine) (*rafiki.Controller, error)) (float64, int, error) {
		eng, err := rafiki.NewEngine(rafiki.EngineOptions{Space: space, Seed: 3})
		if err != nil {
			return 0, 0, err
		}
		eng.Preload(3)
		var ctrl *rafiki.Controller
		if makeCtrl != nil {
			if ctrl, err = makeCtrl(eng); err != nil {
				return 0, 0, err
			}
		}
		const opsPerWindow = 20_000
		start := eng.Clock()
		totalOps := 0
		for i, w := range trace {
			if ctrl != nil {
				if _, err := ctrl.Observe(w.ReadRatio); err != nil {
					return 0, 0, err
				}
			}
			if _, err := rafiki.RunWorkload(eng, rafiki.WorkloadSpec{
				ReadRatio: w.ReadRatio,
				KRDMean:   float64(eng.KeySpace()) / 2,
				Ops:       opsPerWindow,
				Seed:      int64(100 + i),
			}); err != nil {
				return 0, 0, err
			}
			totalOps += opsPerWindow
		}
		elapsed := eng.Clock() - start
		retunes := 0
		if ctrl != nil {
			retunes = ctrl.Retunes()
		}
		fmt.Printf("%-22s %8.0f ops/s over %d windows (%d retunes)\n",
			name, float64(totalOps)/elapsed, len(trace), retunes)
		return float64(totalOps) / elapsed, retunes, nil
	}

	fmt.Println("replaying a 12-hour MG-RAST-like trace...")
	defTput, _, err := run("static default:", nil)
	if err != nil {
		return err
	}
	rafTput, retunes, err := run("reactive controller:", func(eng *rafiki.Engine) (*rafiki.Controller, error) {
		return rafiki.NewController(tuner, eng, 0.25)
	})
	if err != nil {
		return err
	}
	proTput, proRetunes, err := run("proactive (markov):", func(eng *rafiki.Engine) (*rafiki.Controller, error) {
		f, err := rafiki.NewMarkovForecaster(5)
		if err != nil {
			return nil, err
		}
		return rafiki.NewProactiveController(tuner, eng, f, 0.25)
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nreactive tuning gained %+.1f%% (%d retunes); proactive %+.1f%% (%d retunes)\n",
		100*(rafTput/defTput-1), retunes, 100*(proTput/defTput-1), proRetunes)
	fmt.Println("(reconfiguration downtime is charged per retune; the forecaster tunes ahead of regime switches)")
	return nil
}
