package bench

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/forecast"
	"rafiki/internal/nosql"
	"rafiki/internal/workload"
)

// CrossWorkloadPenalty regenerates Section 1's motivating claim: "the
// optimal configuration setting for one type of workload is suboptimal
// for another, and this results in as much as 42.9% degradation". Each
// workload's tuned configuration is measured under the other workload.
func CrossWorkloadPenalty(p *Pipeline) (Report, error) {
	workloads := []float64{0.1, 0.9}
	recs := make(map[float64]core.OptimizeResult, len(workloads))
	for _, rr := range workloads {
		rec, err := p.Recommend(core.RR(rr))
		if err != nil {
			return Report{}, err
		}
		recs[rr] = rec
	}

	t := Table{
		Title:  "Configurations tuned for one workload, measured under another",
		Header: []string{"tuned for", "run at", "throughput", "vs matched config"},
	}
	seed := p.Opts.Env.Seed + 150_000
	var worst float64
	costs := true // every mismatched configuration loses throughput
	for _, tunedFor := range workloads {
		for _, runAt := range workloads {
			seed++
			tput, err := p.Collector.Sample(core.RR(runAt), recs[tunedFor].Config, seed)
			if err != nil {
				return Report{}, err
			}
			matched, err := p.Collector.Sample(core.RR(runAt), recs[runAt].Config, seed+500)
			if err != nil {
				return Report{}, err
			}
			rel := tput/matched - 1
			worst = min(worst, rel)
			costs = costs && (tunedFor == runAt || rel < 0)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("RR=%.0f%%", tunedFor*100),
				fmt.Sprintf("RR=%.0f%%", runAt*100),
				f0(tput), pct(rel),
			})
		}
	}
	return Report{
		ID:     "crossworkload",
		Title:  "Cost of running a mismatched configuration",
		Tables: []Table{t},
		Claims: []Claim{
			claim(costs && worst >= -0.429, "a configuration tuned for the wrong workload degrades throughput, by up to the paper's 42.9%% (worst %s)", pct(worst)),
		},
	}, nil
}

// DynamicTrace regenerates the paper's motivating end-to-end scenario:
// replay an MG-RAST-like regime-switching trace against (a) the static
// default configuration, (b) Rafiki's reactive controller, and (c) the
// proactive forecaster-driven controller (Section 6 future work), with
// reconfiguration downtime charged per retune.
func DynamicTrace(p *Pipeline) (Report, error) {
	spec := workload.DefaultTraceSpec()
	spec.Days = 1
	spec.Seed = p.Opts.Env.Seed
	trace, err := workload.SynthesizeTrace(spec)
	if err != nil {
		return Report{}, err
	}
	trace = trace[:48] // half a day of 15-minute windows

	// Each window is measured on a reset server with the current
	// configuration, mirroring the paper's protocol of independent
	// 5-minute benchmark runs per (workload, configuration) point;
	// reconfiguration downtime is charged per retune.
	run := func(makeCtrl func(a core.Applier) (*core.Controller, error)) (float64, int, error) {
		current := config.Config{}
		var ctrl *core.Controller
		if makeCtrl != nil {
			var err error
			ctrl, err = makeCtrl(applierFunc(func(cfg config.Config) error {
				current = cfg
				return nil
			}))
			if err != nil {
				return 0, 0, err
			}
		}
		window := p.Opts.Env.Sampler
		window.Space = p.Space()
		window.SampleOps /= 2
		var totalOps int
		var totalSeconds float64
		downtime := nosql.DefaultCostModel().ReconfigDowntimeSeconds
		for i, w := range trace {
			if ctrl != nil {
				retuned, err := ctrl.Observe(w.ReadRatio)
				if err != nil {
					return 0, 0, err
				}
				if retuned {
					totalSeconds += downtime
				}
			}
			res, _, err := window.Run(core.RR(w.ReadRatio), current,
				p.Opts.Env.Seed+160_000+int64(i), p.Opts.Env.Seed+int64(200+i))
			if err != nil {
				return 0, 0, err
			}
			totalOps += window.SampleOps
			totalSeconds += res.Seconds
		}
		retunes := 0
		if ctrl != nil {
			retunes = ctrl.Retunes()
		}
		return float64(totalOps) / totalSeconds, retunes, nil
	}

	static, _, err := run(nil)
	if err != nil {
		return Report{}, err
	}
	reactive, reactiveRetunes, err := run(func(a core.Applier) (*core.Controller, error) {
		return core.NewController(p.Tuner, a, 0.3)
	})
	if err != nil {
		return Report{}, err
	}
	proactive, proactiveRetunes, err := run(func(a core.Applier) (*core.Controller, error) {
		f, err := forecast.NewMarkov(5)
		if err != nil {
			return nil, err
		}
		return core.NewProactiveController(p.Tuner, a, f, 0.3)
	})
	if err != nil {
		return Report{}, err
	}

	t := Table{
		Title:  "Replaying a 12-hour regime-switching trace (throughput incl. retune downtime)",
		Header: []string{"strategy", "throughput", "vs static", "retunes"},
		Rows: [][]string{
			{"static default", f0(static), "-", "0"},
			{"reactive controller", f0(reactive), pct(reactive/static - 1), fmt.Sprintf("%d", reactiveRetunes)},
			{"proactive (markov forecast)", f0(proactive), pct(proactive/static - 1), fmt.Sprintf("%d", proactiveRetunes)},
		},
	}
	return Report{
		ID:     "dynamic",
		Title:  "Dynamic workload tracking: static vs reactive vs proactive tuning",
		Tables: []Table{t},
		Notes: []string{
			"the paper's motivation (Sections 1, 2.4.1): static configurations under-perform on MG-RAST's abruptly switching workloads; Rafiki's fast search makes per-window re-tuning feasible",
			"proactive control is the paper's Section 6 future work, driven by the online Markov regime forecaster",
		},
	}, nil
}

// applierFunc adapts a function to core.Applier.
type applierFunc func(config.Config) error

func (f applierFunc) Apply(cfg config.Config) error { return f(cfg) }
