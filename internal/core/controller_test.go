package core

import (
	"errors"
	"fmt"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/forecast"
	"rafiki/internal/golden"
	"rafiki/internal/obs"
	"rafiki/internal/workload"
)

// preparedTuner trains the fast analytic pipeline the controller tests
// share.
func preparedTuner(t *testing.T) *Tuner {
	t.Helper()
	return preparedTunerObs(t, nil)
}

// preparedTunerObs is preparedTuner with its telemetry routed to reg.
func preparedTunerObs(t *testing.T, reg *obs.Registry) *Tuner {
	t.Helper()
	space := config.Cassandra()
	tuner, err := NewTuner(analyticCollector(space), space, TunerOptions{
		SkipIdentify: true,
		Collect:      CollectOptions{Workloads: RRs(0, 0.25, 0.5, 0.75, 1), Configs: 12, Seed: 21},
		Model:        fastModelConfig(),
		GA:           fastGAOptions(),
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Prepare(); err != nil {
		t.Fatal(err)
	}
	return tuner
}

// recordingApplier records applied configs.
type recordingApplier struct {
	applied []config.Config
	fail    bool
}

func (r *recordingApplier) Apply(cfg config.Config) error {
	if r.fail {
		return errors.New("apply failed")
	}
	r.applied = append(r.applied, cfg)
	return nil
}

// lastValueForecaster forecasts the last read ratio it was shown (0.5
// before the first), so a controller behind it decides like a reactive
// one.
type lastValueForecaster struct {
	last float64
	warm bool
}

func (f *lastValueForecaster) Observe(rr float64) { f.last, f.warm = rr, true }

func (f *lastValueForecaster) Predict() float64 {
	if !f.warm {
		return 0.5
	}
	return f.last
}

// recordingForecaster is a lastValueForecaster that keeps every read
// ratio it is shown.
type recordingForecaster struct {
	lastValueForecaster
	seen []float64
}

func (f *recordingForecaster) Observe(rr float64) {
	f.seen = append(f.seen, rr)
	f.lastValueForecaster.Observe(rr)
}

func goldenGuardOptions() GuardOptions {
	opts := DefaultGuardOptions()
	opts.Threshold = 0.2
	opts.MaxStdFrac = 0 // the fast test ensemble disagrees a lot
	opts.SLOP99Max = 0.050
	opts.SLOMinCompliance = 1
	return opts
}

// controllerRows is the one table every controller test walks: the
// three constructors (and the two policies together), each building the
// same *Controller.
var controllerRows = []struct {
	name    string
	guarded bool
	build   func(t *Tuner, a Applier, f forecast.Forecaster) (*Controller, error)
}{
	{"reactive", false, func(t *Tuner, a Applier, _ forecast.Forecaster) (*Controller, error) {
		return NewController(t, a, 0.2)
	}},
	{"proactive", false, func(t *Tuner, a Applier, f forecast.Forecaster) (*Controller, error) {
		return NewProactiveController(t, a, f, 0.2)
	}},
	{"guarded", true, func(t *Tuner, a Applier, _ forecast.Forecaster) (*Controller, error) {
		return NewGuardedController(t, a, goldenGuardOptions())
	}},
	{"guarded+forecast", true, func(t *Tuner, a Applier, f forecast.Forecaster) (*Controller, error) {
		opts := goldenGuardOptions()
		opts.Forecaster = f
		return NewGuardedController(t, a, opts)
	}},
}

// goldenTrace is the fixed 48-window regime-switching trace every
// controller row replays: half a day of 15-minute windows.
func goldenTrace(t *testing.T) []workload.Window {
	t.Helper()
	spec := workload.DefaultTraceSpec()
	spec.Days = 1
	spec.Seed = 1
	trace, err := workload.SynthesizeTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	return trace[:48]
}

// goldenWindow synthesizes window i's measurements for the guarded
// rows: the analytic datastore's throughput under the live
// configuration, collapsing to 1 op/s every fifth window (a canary
// caught there must roll back), and a p99 that breaks the 50 ms
// ceiling every fourth window.
func goldenWindow(space *config.Space, i int, rr float64, current config.Config) WindowMetrics {
	if current == nil {
		current = config.Config{}
	}
	tput, _ := analyticCollector(space).Sample(RR(rr), current, int64(i))
	if i%5 == 1 {
		tput = 1
	}
	p99 := 0.010
	if i%4 == 2 {
		p99 = 0.100
	}
	return WindowMetrics{ReadRatio: rr, Throughput: tput, P99: p99}
}

// TestControllerDecisionsGolden replays goldenTrace through every row
// and pins, per window, whether the live configuration changed and what
// it then was, plus the final counters. The unguarded rows see
// unmeasured windows; the guarded ones are fed goldenWindow, so the
// trace exercises commits, canary rollbacks and SLO rollbacks. Each
// applied recommendation lands on core.retunes exactly once whichever
// constructor built the loop, and on core.guard.retunes only under a
// guard.
func TestControllerDecisionsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	tuner := preparedTunerObs(t, reg)
	trace := goldenTrace(t)
	// counts reads the two retune counters off the shared registry; every
	// row's controller exports its own ledger to it, so rows see deltas.
	counts := func() (retunes, guardRetunes int) {
		cnt := reg.Snapshot().Counters
		return int(cnt["core.retunes"]), int(cnt["core.guard.retunes"])
	}
	for _, row := range controllerRows {
		t.Run(row.name, func(t *testing.T) {
			f, err := forecast.NewMarkov(5)
			if err != nil {
				t.Fatal(err)
			}
			app := &recordingApplier{}
			ctrl, err := row.build(tuner, app, f)
			if err != nil {
				t.Fatal(err)
			}
			retunes0, guardRetunes0 := counts()
			var text []byte
			for i, w := range trace {
				m := WindowMetrics{ReadRatio: w.ReadRatio}
				if row.guarded {
					m = goldenWindow(tuner.Space(), i, w.ReadRatio, ctrl.Current())
				}
				changed, err := ctrl.ObserveWindow(m)
				if err != nil {
					t.Fatal(err)
				}
				text = fmt.Appendf(text, "window %d changed %v config %v\n", i, changed, ctrl.Current())
			}
			text = fmt.Appendf(text, "stats %+v\n", ctrl.Stats())
			golden.Check(t, "testdata/decisions_"+row.name+".golden", text)
			st := ctrl.Stats()
			if ctrl.Retunes() != st.Retunes || len(app.applied) != st.Retunes+st.Rollbacks {
				t.Errorf("Retunes() = %d, applier saw %d configs, stats %+v", ctrl.Retunes(), len(app.applied), st)
			}
			retunes, guardRetunes := counts()
			if got := retunes - retunes0; got != st.Retunes {
				t.Errorf("core.retunes moved by %d, want %d", got, st.Retunes)
			}
			wantGuard := 0
			if row.guarded {
				wantGuard = st.Retunes
			}
			if got := guardRetunes - guardRetunes0; got != wantGuard {
				t.Errorf("core.guard.retunes moved by %d, want %d", got, wantGuard)
			}
		})
	}
}

// TestGuardedControllerObsGolden replays goldenTrace through the guarded
// row on a registry emptied after Prepare, so the snapshot holds the
// loop's own telemetry. The snapshot records the prediction stage's
// worker gauge, so the model's worker count is pinned rather than left
// to the host's CPU count.
func TestGuardedControllerObsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	tuner := preparedTunerObs(t, reg)
	tuner.Surrogate().Model.Workers = 2
	reg.Reset()
	ctrl, err := NewGuardedController(tuner, &recordingApplier{}, goldenGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range goldenTrace(t) {
		if _, err := ctrl.ObserveWindow(goldenWindow(tuner.Space(), i, w.ReadRatio, ctrl.Current())); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/obs_guarded.json", snap)
}

// TestForecasterSeesRollbackWindows: the forecaster is fed once per
// window whatever the window's outcome — a window that ends in a canary
// or SLO rollback is still a transition the forecaster must learn from.
func TestForecasterSeesRollbackWindows(t *testing.T) {
	tuner := preparedTuner(t)
	trace := goldenTrace(t)
	f := &recordingForecaster{}
	opts := goldenGuardOptions()
	opts.Forecaster = f
	ctrl, err := NewGuardedController(tuner, &recordingApplier{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range trace {
		if _, err := ctrl.ObserveWindow(goldenWindow(tuner.Space(), i, w.ReadRatio, ctrl.Current())); err != nil {
			t.Fatal(err)
		}
	}
	st := ctrl.Stats()
	if st.Rollbacks == st.SLORollbacks || st.SLORollbacks == 0 {
		t.Fatalf("trace should contain canary and SLO rollbacks: %+v", st)
	}
	if len(f.seen) != len(trace) {
		t.Fatalf("forecaster saw %d of %d windows (%d rollbacks)", len(f.seen), len(trace), st.Rollbacks)
	}
	for i, w := range trace {
		if f.seen[i] != w.ReadRatio {
			t.Fatalf("window %d: forecaster saw %v, want %v", i, f.seen[i], w.ReadRatio)
		}
	}
}

// TestControllerValidation: every constructor rejects missing
// collaborators and a bad threshold, and every row's loop rejects an
// out-of-range read ratio — before the forecaster sees it, and even
// when it sits within the threshold of the last tuning point — and
// surfaces ErrNotPrepared from an untrained tuner.
func TestControllerValidation(t *testing.T) {
	space := config.Cassandra()
	unprepared, _ := NewTuner(analyticCollector(space), space, DefaultTunerOptions())
	if _, err := NewProactiveController(unprepared, &recordingApplier{}, nil, 0.1); err == nil {
		t.Error("nil forecaster should error")
	}
	tuner := preparedTuner(t)
	for _, row := range controllerRows {
		t.Run(row.name, func(t *testing.T) {
			f := &recordingForecaster{}
			if _, err := row.build(nil, &recordingApplier{}, f); err == nil {
				t.Error("nil tuner should error")
			}
			if _, err := row.build(tuner, nil, f); err == nil {
				t.Error("nil applier should error")
			}
			ctrl, err := row.build(unprepared, &recordingApplier{}, f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctrl.Observe(0.5); !errors.Is(err, ErrNotPrepared) {
				t.Errorf("want ErrNotPrepared, got %v", err)
			}

			f = &recordingForecaster{}
			ctrl, err = row.build(tuner, &recordingApplier{}, f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctrl.Observe(1); err != nil {
				t.Fatal(err)
			}
			seen := len(f.seen)
			for _, rr := range []float64{1.05, -0.05, 1.5} {
				if changed, err := ctrl.Observe(rr); err == nil || changed {
					t.Errorf("read ratio %v: changed=%v err=%v, want an error", rr, changed, err)
				}
			}
			if len(f.seen) != seen {
				t.Errorf("forecaster was shown %d out-of-range read ratios", len(f.seen)-seen)
			}
		})
	}
	for _, threshold := range []float64{-1, 2} {
		if _, err := NewController(tuner, &recordingApplier{}, threshold); err == nil {
			t.Errorf("NewController accepted threshold %v", threshold)
		}
		if _, err := NewProactiveController(tuner, &recordingApplier{}, &recordingForecaster{}, threshold); err == nil {
			t.Errorf("NewProactiveController accepted threshold %v", threshold)
		}
	}
}

// TestControllerRetunesOnWorkloadShift: on every row the first window
// tunes, jitter below the threshold does not, a regime switch does, and
// the two regimes get different compaction strategies.
func TestControllerRetunesOnWorkloadShift(t *testing.T) {
	tuner := preparedTuner(t)
	for _, row := range controllerRows {
		t.Run(row.name, func(t *testing.T) {
			app := &recordingApplier{}
			ctrl, err := row.build(tuner, app, &recordingForecaster{})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				rr   float64
				want bool
				why  string
			}{
				{0.9, true, "first observation should tune"},
				{0.85, false, "jitter below threshold should not retune"},
				{0.1, true, "regime switch should retune"},
			} {
				retuned, err := ctrl.Observe(step.rr)
				if err != nil {
					t.Fatal(err)
				}
				if retuned != step.want {
					t.Error(step.why)
				}
			}
			if ctrl.Retunes() != 2 || len(app.applied) != 2 {
				t.Fatalf("retunes = %d, applied = %d", ctrl.Retunes(), len(app.applied))
			}
			if ctrl.Current() == nil {
				t.Error("Current should return the live config")
			}
			// The write-heavy config should differ from the read-heavy one in
			// compaction strategy under the analytic ground truth.
			if app.applied[0][config.ParamCompactionStrategy] == app.applied[1][config.ParamCompactionStrategy] {
				t.Error("read-heavy and write-heavy recommendations should differ in compaction strategy")
			}
		})
	}
}

// TestControllerApplyFailure: a failing applier surfaces on every row
// and leaves no trace of a reconfiguration behind.
func TestControllerApplyFailure(t *testing.T) {
	reg := obs.NewRegistry()
	tuner := preparedTunerObs(t, reg)
	for _, row := range controllerRows {
		t.Run(row.name, func(t *testing.T) {
			ctrl, err := row.build(tuner, &recordingApplier{fail: true}, &recordingForecaster{})
			if err != nil {
				t.Fatal(err)
			}
			if changed, err := ctrl.Observe(0.5); err == nil || changed {
				t.Errorf("apply failure should propagate: changed=%v err=%v", changed, err)
			}
			if ctrl.Retunes() != 0 || ctrl.Current() != nil || reg.Counter("core.retunes").Value() != 0 {
				t.Errorf("failed apply counted: retunes=%d current=%v core.retunes=%d",
					ctrl.Retunes(), ctrl.Current(), reg.Counter("core.retunes").Value())
			}
		})
	}
}

func TestProactiveControllerTracksForecast(t *testing.T) {
	tuner := preparedTuner(t)
	markov, err := forecast.NewMarkov(5)
	if err != nil {
		t.Fatal(err)
	}
	app := &recordingApplier{}
	ctrl, err := NewProactiveController(tuner, app, markov, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	retuned, err := ctrl.Observe(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !retuned {
		t.Error("first observation should tune")
	}
	// Let the Markov prior wash out while the workload is stable; early
	// retunes during convergence are acceptable.
	for i := 0; i < 10; i++ {
		if _, err := ctrl.Observe(0.9); err != nil {
			t.Fatal(err)
		}
	}
	warmRetunes := ctrl.Retunes()
	// A converged forecaster on a stable stream must not retune.
	for i := 0; i < 5; i++ {
		retuned, err = ctrl.Observe(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if retuned {
			t.Fatalf("stable workload retuned at step %d", i)
		}
	}
	// A sustained write regime moves the forecast and forces a retune.
	var flipped bool
	for i := 0; i < 6; i++ {
		retuned, err = ctrl.Observe(0.05)
		if err != nil {
			t.Fatal(err)
		}
		flipped = flipped || retuned
	}
	if !flipped {
		t.Error("sustained regime change should retune")
	}
	if ctrl.Retunes() <= warmRetunes || len(app.applied) != ctrl.Retunes() {
		t.Errorf("retunes = %d, applied = %d", ctrl.Retunes(), len(app.applied))
	}
	if ctrl.Current() == nil {
		t.Error("Current should return the live config")
	}
}

// TestGuardStatsLedgerNames pins the counter names GuardStats exports
// to the seven the guard's obs twin published.
func TestGuardStatsLedgerNames(t *testing.T) {
	golden.Names(t, new(GuardStats),
		"core.guard.commits", "core.guard.probe_rejections", "core.guard.rejected_predictions",
		"core.guard.retunes", "core.guard.rollbacks", "core.guard.slo_rollbacks", "core.guard.slo_violations")
}
