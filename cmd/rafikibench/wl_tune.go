package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rafiki"
	"rafiki/internal/anova"
	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/linalg"
	"rafiki/internal/nn"
	"rafiki/internal/nosql"
	"rafiki/internal/par"
	"rafiki/internal/stats"
	"rafiki/internal/workload"
)

// Literals of tune_dynamic: the paper's path through the public API.
const (
	tuneSampleOps   = 60_000
	tuneEpochs      = 60
	tuneWindows     = 48 // of a 1-day synthesized trace
	tuneWindowOps   = 30_000
	tuneThreshold   = 0.3 // controller re-tune threshold, as exp_dynamic.go
	tuneSweepReps   = 10  // x 11 read ratios
	tuneHeldConfigs = 2   // x 11 read ratios, seed disjoint from collection
	tuneKRDFraction = 2.0
	tunePreload     = 3
	// The trace and the held-out configurations stand in for recorded
	// inputs (the paper replays a recorded MG-RAST day), so their seeds
	// are literals: which regimes a day holds moves every sim number by
	// 10-20 %, which is a different workload, not a repetition. -seed
	// drives the op streams and engine noise of the windows and of the
	// held-out samples.
	tuneTraceSeed   = 1
	tuneHeldCfgSeed = 15
	// tunePaceEvery: the reference kernel runs after every eighth
	// sample inside Prepare (about 40 ticks, 3 % of its wall time).
	tunePaceEvery = 8
)

// tuneSizes are the literals after -scale.
type tuneSizes struct {
	sampleOps, windowOps, windows, epochs, sweepReps int
	small                                            bool // tiny scales skip identify and shrink the grid
}

func tuneSizesFor(o runOpts) tuneSizes {
	return tuneSizes{
		sampleOps: o.scaleInt(tuneSampleOps, 600),
		windowOps: o.scaleInt(tuneWindowOps, 300),
		windows:   o.scaleInt(tuneWindows, 6),
		epochs:    o.scaleInt(tuneEpochs, 4),
		sweepReps: o.scaleInt(tuneSweepReps, 1),
		small:     o.scale < 0.1,
	}
}

// timingCollector wraps the simulator collector: it counts samples and,
// on traced runs, spans each one under the stage that asked for it.
type timingCollector struct {
	inner  core.Collector
	tr     *tracer
	pace   *pacer       // untraced Prepare: a reference-kernel tick every tunePaceEvery samples
	stage  atomic.Int32 // span id of the running stage
	n      atomic.Int64
	failed atomic.Int64

	mu     sync.Mutex
	sweeps []sweepSample // identify-stage samples, for anova.rank_us
}

type sweepSample struct {
	param string
	tput  float64
	seed  int64
}

func (c *timingCollector) Sample(w core.Workload, cfg config.Config, seed int64) (float64, error) {
	req := c.n.Add(1)
	id := c.tr.begin(c.stage.Load(), "core.sample", req)
	tput, err := c.inner.Sample(w, cfg, seed)
	c.tr.end(id)
	if req%tunePaceEvery == 0 {
		c.pace.tick(phaseRep)
	}
	if err != nil {
		c.failed.Add(1)
		return 0, err
	}
	if len(cfg) == 1 { // an identify-stage sample: one parameter moved off its default
		var param string
		for name := range cfg {
			param = name
		}
		c.mu.Lock()
		c.sweeps = append(c.sweeps, sweepSample{param, tput, seed})
		c.mu.Unlock()
	}
	return tput, nil
}

// heldOut is one held-out observation.
type heldOut struct {
	w    core.Workload
	cfg  config.Config
	tput float64
}

// tuneSetup is one set-up: the trace and the held-out set.
func tuneSetup(o runOpts, sz tuneSizes, c core.Collector) ([]workload.Window, []heldOut, error) {
	trace, err := workload.SynthesizeTrace(workload.TraceSpec{Days: 1, WindowMinutes: 15, Seed: tuneTraceSeed})
	if err != nil {
		return nil, nil, err
	}
	trace = trace[:sz.windows]
	// SampleConfigs puts the default first and ten coverage configs
	// next; what follows is purely random.
	cfgs, err := core.SampleConfigs(rafiki.CassandraSpace(), 11+tuneHeldConfigs, tuneHeldCfgSeed)
	if err != nil {
		return nil, nil, err
	}
	// The held-out samples run on the pool like the collect stage's, so
	// that set-up stays short next to the timed phase.
	ws := core.DefaultCollectOptions().Workloads
	held := make([]heldOut, tuneHeldConfigs*len(ws))
	err = par.Do(len(held), par.Options{Name: "held-out"}, func(i int) error {
		cfg, w := cfgs[11+i/len(ws)], ws[i%len(ws)]
		tput, err := c.Sample(w, cfg, par.DeriveSeed(o.seed, int64(2000+i)))
		held[i] = heldOut{w, cfg, tput}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return trace, held, nil
}

// tuneOptions are the public API's defaults with the issue's one
// change (60 BR epochs). The pipeline's own seeds stay at their default
// of 0, the configuration a caller of DefaultTunerOptions gets: -seed
// generates the benchmark's inputs (the trace, the windows' op streams,
// the held-out set), not the program's internals. README.md, "Cautions",
// records what happens when the pipeline seeds move too.
func tuneOptions(sz tuneSizes) core.TunerOptions {
	opts := rafiki.DefaultTunerOptions()
	opts.Model.BR.Epochs = sz.epochs
	if sz.small {
		opts.SkipIdentify = true
		opts.Collect.Configs = 4
		opts.Model.EnsembleSize = 4
	}
	return opts
}

// applierFunc adapts a function to core.Applier.
type applierFunc func(config.Config) error

func (f applierFunc) Apply(cfg config.Config) error { return f(cfg) }

// tuneOnline is what the online phase measured.
type tuneOnline struct {
	tuned, static float64 // trace throughput, ops per virtual second
	retunes       int
	recommendMs   []float64 // every timed Recommend: retunes, then the sweep
	observeMs     []float64 // Controller.Observe calls that retuned
	latencies     []float64 // epoch mean latencies of the tuned arm, seconds
	sweepAllocs   float64   // heap allocations per sweep Recommend
	evals, gens   int
	windowRuns    int
	invalid       int // recommended configs the space rejected
}

// replayWindow measures one trace window on a fresh engine under cfg.
func replayWindow(o runOpts, sz tuneSizes, space *config.Space, cfg config.Config, i int, rr float64) (workload.Result, nosql.Metrics, error) {
	eng, err := nosql.New(nosql.Options{Space: space, Config: cfg, Seed: par.DeriveSeed(o.seed, int64(160_000+i))})
	if err != nil {
		return workload.Result{}, nosql.Metrics{}, err
	}
	eng.Preload(tunePreload)
	res, err := workload.Run(eng, workload.Spec{
		ReadRatio: rr, KRDMean: tuneKRDFraction * float64(eng.KeySpace()), Ops: sz.windowOps,
		Seed: par.DeriveSeed(o.seed, int64(200+i)),
	})
	return res, eng.Metrics(), err
}

// runOnline replays the trace through core.Controller and under the
// static default, charging reconfiguration downtime as exp_dynamic.go
// does, then sweeps Recommend over the eleven read ratios.
func runOnline(o runOpts, sz tuneSizes, tuner *core.Tuner, trace []workload.Window, tr *tracer, pace *pacer) (tuneOnline, error) {
	var out tuneOnline
	space := tuner.Space()
	downtime := nosql.DefaultCostModel().ReconfigDowntimeSeconds
	root := tr.begin(0, "tune.online", 0)
	for _, controlled := range []bool{true, false} {
		current := config.Config{}
		var ctrl *core.Controller
		if controlled {
			var err error
			ctrl, err = core.NewController(tuner, applierFunc(func(cfg config.Config) error {
				current = cfg
				return nil
			}), tuneThreshold)
			if err != nil {
				return out, err
			}
		}
		var seconds float64
		for i, w := range trace {
			if ctrl != nil {
				id := tr.begin(root, "core.observe", int64(i))
				start := time.Now()
				retuned, err := ctrl.Observe(w.ReadRatio)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				tr.end(id)
				if err != nil {
					return out, err
				}
				if retuned {
					seconds += downtime
					out.recommendMs = append(out.recommendMs, ms)
					out.observeMs = append(out.observeMs, ms)
					if space.Validate(current) != nil {
						out.invalid++
					}
				}
			}
			id := tr.begin(root, "tune.window", int64(i))
			res, m, err := replayWindow(o, sz, space, current, i, w.ReadRatio)
			tr.end(id)
			if err != nil {
				return out, err
			}
			out.windowRuns++
			seconds += res.Seconds
			if controlled {
				out.latencies = append(out.latencies, m.EpochLatencies...)
			}
		}
		tput := float64(sz.windowOps*len(trace)) / seconds
		if controlled {
			out.tuned, out.retunes = tput, ctrl.Retunes()
		} else {
			out.static = tput
		}
	}
	tr.end(root)

	root = tr.begin(0, "tune.sweep", 0)
	m0 := readMem()
	n := 0
	for rep := 0; rep < sz.sweepReps; rep++ {
		for _, w := range core.DefaultCollectOptions().Workloads {
			id := tr.begin(root, "core.recommend", int64(n))
			start := time.Now()
			rec, err := tuner.Recommend(w)
			out.recommendMs = append(out.recommendMs, float64(time.Since(start).Nanoseconds())/1e6)
			tr.end(id)
			if err != nil {
				return out, err
			}
			pace.tick(phaseSearch) // between searches, outside the timed call
			if space.Validate(rec.Config) != nil {
				out.invalid++
			}
			out.evals, out.gens = rec.Evaluations, len(rec.History)
			n++
		}
	}
	out.sweepAllocs = float64(readMem().mallocs-m0.mallocs) / float64(n)
	tr.end(root)
	return out, nil
}

func runTune(o runOpts, traced bool) (*runResult, error) {
	r := newRunResult(o, "tune_dynamic", traced)
	sz := tuneSizesFor(o)
	opts := tuneOptions(sz)
	workers := par.Workers(opts.Collect.Workers)
	r.Literals = map[string]any{
		"sample_ops": sz.sampleOps, "br_epochs": sz.epochs, "ensemble": opts.Model.EnsembleSize, "hidden": opts.Model.Hidden,
		"collect_configs": opts.Collect.Configs, "collect_read_ratios": len(opts.Collect.Workloads), "skip_identify": opts.SkipIdentify,
		"trace_windows": sz.windows, "window_ops": sz.windowOps, "retune_threshold": tuneThreshold,
		"sweep": fmt.Sprintf("%d x 11 read ratios", sz.sweepReps), "held_out": fmt.Sprintf("11 read ratios x %d configs", tuneHeldConfigs),
		"trace_seed": tuneTraceSeed, "held_out_config_seed": tuneHeldCfgSeed, "pipeline_seeds": "DefaultTunerOptions (0)",
		"krd_fraction": tuneKRDFraction, "preload_versions": tunePreload, "workers": workers, "loop": "closed",
	}

	ts := startTrace(r, o.seed, 0)
	tr := ts.tr
	tc := &timingCollector{
		inner: rafiki.NewSimulatorCollector(rafiki.SimulatorConfig{SampleOps: sz.sampleOps}),
		tr:    tr,
	}

	// Set-up, several times for a median: the trace and the held-out set.
	var setups []float64
	var trace []workload.Window
	var held []heldOut
	pace := newPacer()
	for i := 0; i < o.minSetups(); i++ {
		start := time.Now()
		var err error
		if trace, held, err = tuneSetup(o, sz, tc.inner); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		pace.tick(phaseSetup)
	}

	space := rafiki.CassandraSpace()
	paperKeys := append([]string(nil), space.KeyNames...)
	var tuner *core.Tuner
	var prepWall float64
	var fit *fitProbe
	var err error
	if !traced {
		if tuner, err = rafiki.NewTuner(tc, space, opts); err != nil {
			return nil, err
		}
		// Prepare is one call, so the reference kernel brackets it and
		// runs after every eighth sample inside it (tunePaceEvery).
		pace.burst(phaseRep)
		tc.pace = pace
		start := time.Now()
		if err := tuner.Prepare(); err != nil {
			return nil, err
		}
		prepWall = time.Since(start).Seconds()
		tc.pace = nil
		pace.burst(phaseRep)
	} else {
		if tuner, fit, err = prepareByStage(r, tc, space, opts, tr); err != nil {
			return nil, err
		}
	}
	online, err := runOnline(o, sz, tuner, trace, tr, pace)
	if err != nil {
		return nil, err
	}
	r.Reps = 1
	pace.finish(r)

	// Held-out prediction error.
	sur := tuner.Surrogate()
	pred, obs := make([]float64, len(held)), make([]float64, len(held))
	for i, h := range held {
		if pred[i], err = sur.Predict(h.w, h.cfg); err != nil {
			return nil, err
		}
		obs[i] = h.tput
	}
	mape, err := stats.MAPE(pred, obs)
	if err != nil {
		return nil, err
	}
	gain := 100 * (online.tuned/online.static - 1)

	ds := tuner.Dataset()
	if traced {
		ds = fit.ds
	}
	r.Attempted = tc.n.Load() + int64(len(setups)*len(held)+online.windowRuns+len(online.recommendMs))
	r.Failed = tc.failed.Load() + int64(online.invalid)
	r.Facts["static_ops_per_virtual_s"] = online.static
	r.Facts["tuned_gain_pct"] = gain
	r.Facts["pred_err_pct"] = mape
	r.Facts["retunes"] = float64(online.retunes)
	r.Facts["recommend_samples"] = float64(len(online.recommendMs))
	r.Facts["dataset_kept"] = float64(len(ds.Samples))
	r.Facts["latency_epochs"] = float64(len(online.latencies))
	r.check("recommendations_valid", online.invalid == 0, "%d recommended configurations fail Space.Validate", online.invalid)
	r.check("dataset_complete", len(ds.Samples) == opts.Collect.Configs*len(opts.Collect.Workloads)-ds.Dropped,
		"dataset holds %d samples, want %d - %d dropped", len(ds.Samples), opts.Collect.Configs*len(opts.Collect.Workloads), ds.Dropped)
	if !sz.small {
		got := append([]string(nil), space.KeyNames...)
		sort.Strings(got)
		sort.Strings(paperKeys)
		r.check("key_params_are_the_papers", fmt.Sprint(got) == fmt.Sprint(paperKeys), "identify selected %v, the paper's five are %v", got, paperKeys)
		r.check("tuning_gains", gain > 0, "controller throughput %.0f does not beat the static default's %.0f", online.tuned, online.static)
		r.check("recommend_sample_size", len(online.recommendMs) >= 33, "only %d timed Recommend calls", len(online.recommendMs))
	}

	if !traced {
		r.setSeconds("setup_s", phaseSetup, setups)
		r.setSeconds("rep_wall_s", phaseRep, []float64{prepWall})
		rates := make([]float64, len(online.recommendMs))
		for i, ms := range online.recommendMs {
			rates[i] = 1e3 / ms
		}
		r.setRates("host_ops_per_s", phaseSearch, rates)
		q2 := median(online.recommendMs)
		r.set("allocs_per_op", online.sweepAllocs)
		r.set("live_heap_mb", liveHeapMB())
		r.set("sim_ops_per_s", online.tuned)
		r.set("sim_p50_us", quantile(online.latencies, 0.5)*1e6)
		r.set("sim_p99_us", quantile(online.latencies, 0.99)*1e6)
		r.set("sim_max_rate_krps", online.tuned/1e3)
		r.set("sim_goodput_frac", math.Max(0.01, 1-mape/100)) // floored: an end-to-end metric is never 0
		r.Notes = append(r.Notes,
			fmt.Sprintf("host_ops_per_s = 1000 / median Recommend ms over n=%d (retunes + sweep); median %.3f ms", len(online.recommendMs), q2),
			fmt.Sprintf("tuned_gain_pct %.2f, pred_err_pct %.2f (held-out n=%d), %d retunes over %d windows", gain, mape, len(held), online.retunes, len(trace)),
			fmt.Sprintf("sim_p50_us/sim_p99_us over n=%d epoch mean latencies of the tuned arm", len(online.latencies)))
	} else {
		r.set("core.tuned_gain_pct", gain)
		r.set("core.pred_err_pct", mape)
		r.set("core.retunes", float64(online.retunes))
		r.set("core.recommend_ms_p50", quantile(online.recommendMs, 0.5))
		r.set("core.recommend_ms_p90", quantile(online.recommendMs, 0.9))
		r.set("core.observe_ms_p50", quantile(online.observeMs, 0.5))
		r.set("ga.evals", float64(online.evals))
		r.set("ga.generations", float64(online.gens))
		r.set("par.workers", float64(workers))
		if err := tuneLayerMetrics(r, tc, tuner, fit, tr); err != nil {
			return nil, err
		}
		ts.finish(r)
	}
	runtime.KeepAlive(tuner)
	return r, nil
}

// fitProbe carries what the stage-separated prepare leaves for the
// layer probes.
type fitProbe struct {
	ds     core.Dataset
	xs     [][]float64
	ys     []float64
	model  *nn.Model
	allocs uint64
}

// prepareByStage is Tuner.Prepare taken apart: the same three stages
// with the same options, each under its own span, so that a traced run
// reproduces the untraced run's surrogate exactly.
func prepareByStage(r *runResult, tc *timingCollector, space *config.Space, opts core.TunerOptions, tr *tracer) (*core.Tuner, *fitProbe, error) {
	fit := &fitProbe{}
	root := tr.begin(0, "tune.prepare", 0)
	if !opts.SkipIdentify {
		id := tr.begin(root, "core.identify", 0)
		tc.stage.Store(id)
		ident, err := core.IdentifyKeyParameters(tc, space, opts.Identify)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		space.KeyNames = ident.KeyNames
	}
	id := tr.begin(root, "core.collect", 0)
	tc.stage.Store(id)
	ds, err := core.Collect(tc, space, opts.Collect)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	fit.ds = ds

	id = tr.begin(root, "core.train", 0)
	tc.stage.Store(0)
	if fit.xs, fit.ys, err = ds.Features(space); err != nil {
		return nil, nil, err
	}
	m0 := readMem()
	fitID := tr.begin(id, "nn.fit", 0)
	fit.model, err = nn.Fit(fit.xs, fit.ys, opts.Model)
	tr.end(fitID)
	fit.allocs = readMem().mallocs - m0.mallocs
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, nil, err
	}

	opts.SkipIdentify = true
	tuner, err := core.NewTuner(tc, space, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := tuner.UseSurrogate(&core.Surrogate{Model: fit.model, Space: space}); err != nil {
		return nil, nil, err
	}
	return tuner, fit, nil
}

// tuneLayerMetrics turns the traced run's spans into the core rows and
// probes anova, nn, linalg and ga directly.
func tuneLayerMetrics(r *runResult, tc *timingCollector, tuner *core.Tuner, fit *fitProbe, tr *tracer) error {
	secs := func(name string) float64 { return tr.total(name) / 1e9 }
	r.set("core.identify_s", secs("core.identify"))
	r.set("core.collect_s", secs("core.collect"))
	r.set("core.train_s", secs("core.train"))
	if prep, ok := tr.find("tune.prepare"); ok {
		self := tr.selfTimes()[prep.ID]
		gap := 100 * float64(self) / float64(prep.End-prep.Start)
		r.set("core.stage_gap_pct", gap)
		r.check("stages_cover_prepare", gap >= 0 && gap <= 5, "the three stage spans leave %.2f %% of the prepare span uncovered", gap)
	}
	samples := tr.durations("core.sample")
	for i := range samples {
		samples[i] /= 1e6
	}
	r.set("core.sample_ms_p50", quantile(samples, 0.5))
	r.set("core.sample_ms_p95", quantile(samples, 0.95))
	r.set("core.samples", float64(tc.n.Load()))
	r.set("core.dropped", float64(fit.ds.Dropped))
	r.Facts["sample_spans"] = float64(len(samples))
	r.Facts["sample_tail_percentile"] = tailPercentile(len(samples))
	r.set("nn.fit_s", secs("nn.fit"))
	r.set("nn.fit_allocs", float64(fit.allocs))
	r.set("nn.members_kept", float64(fit.model.Size()))
	r.set("anova.key_params", float64(len(tuner.Space().KeyNames)))
	r.set("ga.search_ms", quantile(tr.durations("core.recommend"), 0.5)/1e6)

	// anova.Rank on the identify stage's own sweeps, rebuilt from the
	// samples the collector saw (each carried exactly one parameter).
	if len(tc.sweeps) > 0 {
		tc.mu.Lock()
		sort.Slice(tc.sweeps, func(i, j int) bool { return tc.sweeps[i].seed < tc.sweeps[j].seed })
		sweeps := make(map[string][][]float64)
		for _, s := range tc.sweeps {
			sweeps[s.param] = append(sweeps[s.param], []float64{s.tput})
		}
		tc.mu.Unlock()
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := anova.Rank(sweeps); err != nil {
				return err
			}
		}
		r.set("anova.rank_us", float64(time.Since(start).Nanoseconds())/1e3/reps)
	}

	// Prediction cost: one call through the surrogate, through the
	// model, and per row of a batch.
	sur := tuner.Surrogate()
	const predicts = 20_000
	w, cfg := core.RR(0.5), tuner.Space().Default()
	start := time.Now()
	for i := 0; i < predicts; i++ {
		if _, err := sur.Predict(w, cfg); err != nil {
			return err
		}
	}
	r.set("core.predict_ns", float64(time.Since(start).Nanoseconds())/predicts)
	x := fit.xs[0]
	start = time.Now()
	for i := 0; i < predicts; i++ {
		if _, err := fit.model.Predict(x); err != nil {
			return err
		}
	}
	r.set("nn.predict_ns", float64(time.Since(start).Nanoseconds())/predicts)
	batch := make([][]float64, 1024)
	for i := range batch {
		batch[i] = fit.xs[i%len(fit.xs)]
	}
	out := make([]float64, len(batch))
	const batches = 40
	start = time.Now()
	for i := 0; i < batches; i++ {
		if err := fit.model.PredictBatchInto(out, batch); err != nil {
			return err
		}
	}
	r.set("nn.predict_batch_row_ns", float64(time.Since(start).Nanoseconds())/float64(batches*len(batch)))

	// One search's allocations, outside any span.
	m0 := readMem()
	const searches = 3
	for i := 0; i < searches; i++ {
		if _, err := tuner.Recommend(core.RR(0.5)); err != nil {
			return err
		}
	}
	r.set("ga.allocs_per_search", float64(readMem().mallocs-m0.mallocs)/searches)
	return linalgProbe(r, fit)
}

// linalgProbe times the two kernels the LM trainer spends its time in,
// on a Jacobian shaped like the surrogate's: samples x weights of an
// [I,14,4,1] net.
func linalgProbe(r *runResult, fit *fitProbe) error {
	inputs := len(fit.xs[0])
	net, err := nn.NewNetwork(inputs, []int{14, 4}, rand.New(rand.NewSource(par.DeriveSeed(r.Seed, 16))))
	if err != nil {
		return err
	}
	norm, err := nn.FitNormalizer(fit.xs)
	if err != nil {
		return err
	}
	jac := linalg.New(len(fit.xs), net.NumWeights())
	grad := make([]float64, net.NumWeights())
	for i, x := range fit.xs {
		nx, err := norm.Apply(x)
		if err != nil {
			return err
		}
		if _, err := net.Gradient(nx, grad); err != nil {
			return err
		}
		for j, g := range grad {
			jac.Set(i, j, g)
		}
	}
	gram := linalg.New(jac.Cols, jac.Cols)
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := jac.AtAInto(gram); err != nil {
			return err
		}
	}
	r.set("linalg.ata_ns", float64(time.Since(start).Nanoseconds())/reps)
	if err := gram.AddDiagonal(0.01); err != nil {
		return err
	}
	b, x := make([]float64, jac.Cols), make([]float64, jac.Cols)
	for i := range b {
		b[i] = 1
	}
	var solver linalg.Solver
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := solver.SolveSPD(gram, b, x); err != nil {
			return err
		}
	}
	r.set("linalg.solve_spd_ns", float64(time.Since(start).Nanoseconds())/reps)
	r.Facts["jacobian_rows"], r.Facts["jacobian_cols"] = float64(jac.Rows), float64(jac.Cols)
	return nil
}
