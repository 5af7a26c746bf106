package core

import (
	"errors"
	"testing"

	"rafiki/internal/config"
)

func TestGuardedControllerValidation(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	if _, err := NewGuardedController(nil, app, DefaultGuardOptions()); err == nil {
		t.Error("nil tuner should error")
	}
	if _, err := NewGuardedController(tuner, nil, DefaultGuardOptions()); err == nil {
		t.Error("nil applier should error")
	}
	bad := []GuardOptions{
		{Threshold: -0.1},
		{Threshold: 1.5},
		{MaxStdFrac: -1},
		{MaxGainFactor: -1},
		{ProbeTolerance: 2},
		{CanaryWindows: -1},
		{RegressionTolerance: 1},
	}
	for i, opts := range bad {
		if _, err := NewGuardedController(tuner, app, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	ctrl, err := NewGuardedController(tuner, app, DefaultGuardOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(1.5); err == nil {
		t.Error("bad read ratio should error")
	}
}

func TestGuardedControllerAppliesAndCommits(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0 // the fast test ensemble disagrees a lot; vet elsewhere
	opts.CanaryWindows = 2
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctrl.Observe(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || len(app.applied) != 1 {
		t.Fatalf("first observation should apply: changed=%v applied=%d", changed, len(app.applied))
	}
	if ctrl.LastGood() != nil {
		t.Error("config should still be on probation")
	}
	// Feed two healthy windows: measured matches the surrogate's view.
	for i := 0; i < 2; i++ {
		predicted, err := tuner.Surrogate().Predict(RR(0.9), ctrl.Current())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.ObserveWindow(WindowMetrics{ReadRatio: 0.9, Throughput: predicted}); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.LastGood() == nil {
		t.Error("healthy canary should commit")
	}
	st := ctrl.Stats()
	if st.Retunes != 1 || st.Commits != 1 || st.Rollbacks != 0 {
		t.Errorf("stats = %+v, want 1 retune, 1 commit", st)
	}
}

func TestGuardedControllerRollsBackOnRegression(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0
	opts.RegressionTolerance = 0.3
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.9); err != nil {
		t.Fatal(err)
	}
	// The canary window measures a collapse far below the prediction.
	changed, err := ctrl.ObserveWindow(WindowMetrics{ReadRatio: 0.9, Throughput: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("regression should change the live config")
	}
	st := ctrl.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	// Nothing was ever committed, so the rollback target is the space
	// default configuration.
	def := tuner.Space().Default()
	got := app.applied[len(app.applied)-1]
	for name, v := range def {
		if got[name] != v {
			t.Fatalf("rollback applied %v for %s, want default %v", got[name], name, v)
		}
	}
	if st.Commits != 0 {
		t.Errorf("commits = %d, want 0", st.Commits)
	}
}

func TestGuardRejectsDisagreementAndOutOfBand(t *testing.T) {
	tuner := preparedTuner(t)

	// An impossibly strict disagreement bound vetoes every candidate:
	// a finite ensemble always has some spread.
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 1e-12
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctrl.Observe(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if changed || len(app.applied) != 0 {
		t.Error("disagreeing prediction should be vetoed before apply")
	}
	if ctrl.Stats().RejectedPredictions != 1 {
		t.Errorf("rejected = %d, want 1", ctrl.Stats().RejectedPredictions)
	}
	// The veto pins the tuning point: the same window does not re-vet.
	if _, err := ctrl.Observe(0.9); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stats().RejectedPredictions != 1 {
		t.Error("unchanged workload should not re-vet")
	}

	// A measured baseline of ~1 op/s makes any real prediction
	// out-of-band under MaxGainFactor.
	app = &recordingApplier{}
	opts = DefaultGuardOptions()
	opts.MaxStdFrac = 0
	opts.MaxGainFactor = 2
	ctrl, err = NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed, err = ctrl.ObserveWindow(WindowMetrics{ReadRatio: 0.9, Throughput: 1})
	if err != nil {
		t.Fatal(err)
	}
	if changed || ctrl.Stats().RejectedPredictions != 1 {
		t.Errorf("out-of-band prediction should be vetoed: changed=%v stats=%+v", changed, ctrl.Stats())
	}
}

func TestGuardProbeVetoesCandidate(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0
	probes := 0
	opts.Probe = func(w Workload, cfg config.Config) (float64, error) {
		probes++
		return 1, nil // the measured probe collapses
	}
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctrl.Observe(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if changed || len(app.applied) != 0 {
		t.Error("failed probe should keep the candidate off the datastore")
	}
	if probes != 1 || ctrl.Stats().ProbeRejections != 1 {
		t.Errorf("probes = %d, rejections = %d", probes, ctrl.Stats().ProbeRejections)
	}

	// A probe error propagates.
	opts.Probe = func(Workload, config.Config) (float64, error) {
		return 0, errors.New("probe rig unavailable")
	}
	ctrl, err = NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.2); err == nil {
		t.Error("probe error should propagate")
	}
}

func TestGuardedControllerProactiveForecasting(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	fc := &lastValueForecaster{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0
	opts.CanaryWindows = 0
	opts.Forecaster = fc
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	if ctrl.Retunes() != 2 {
		t.Fatalf("retunes = %d, want 2", ctrl.Retunes())
	}
	// Tuned for the forecast regimes: read-heavy then write-heavy.
	if app.applied[0][config.ParamCompactionStrategy] == app.applied[1][config.ParamCompactionStrategy] {
		t.Error("forecast regimes should pick different compaction strategies")
	}
}

func TestSLOObjectiveRollsBackDespiteThroughputPass(t *testing.T) {
	// The canary meets its mean-throughput prediction in every window
	// but blows the p99 ceiling: the SLO objective must win and roll
	// the configuration back anyway.
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0
	opts.CanaryWindows = 2
	opts.SLOP99Max = 0.050 // 50 virtual-ms
	opts.SLOMinCompliance = 1
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.9); err != nil {
		t.Fatal(err)
	}
	if len(app.applied) != 1 {
		t.Fatalf("first observation should apply, got %d applies", len(app.applied))
	}
	predicted, err := tuner.Surrogate().Predict(RR(0.9), ctrl.Current())
	if err != nil {
		t.Fatal(err)
	}
	// Throughput exactly on prediction — the regression check passes —
	// with a p99 double the ceiling.
	changed, err := ctrl.ObserveWindow(WindowMetrics{ReadRatio: 0.9, Throughput: predicted, P99: 0.100})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("SLO violation during probation should roll back")
	}
	st := ctrl.Stats()
	if st.SLOViolations != 1 || st.SLORollbacks != 1 || st.Rollbacks != 1 {
		t.Fatalf("stats = %+v, want 1 SLO violation, 1 SLO rollback", st)
	}
	if st.Commits != 0 {
		t.Errorf("commits = %d, want 0", st.Commits)
	}
	// The rollback target is the space default: nothing ever committed.
	def := tuner.Space().Default()
	got := app.applied[len(app.applied)-1]
	for name, v := range def {
		if got[name] != v {
			t.Fatalf("rollback applied %v for %s, want default %v", got[name], name, v)
		}
	}
}

func TestSLOCompliantCanaryCommits(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	opts := DefaultGuardOptions()
	opts.MaxStdFrac = 0
	opts.CanaryWindows = 2
	opts.SLOP99Max = 0.050
	opts.SLOMinCompliance = 0.5 // one of two windows may violate
	ctrl, err := NewGuardedController(tuner, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Observe(0.9); err != nil {
		t.Fatal(err)
	}
	predicted, err := tuner.Surrogate().Predict(RR(0.9), ctrl.Current())
	if err != nil {
		t.Fatal(err)
	}
	// One violating window is within the 0.5 compliance bar, the second
	// window meets the ceiling, and the canary commits.
	for _, p99 := range []float64{0.100, 0.010} {
		if _, err := ctrl.ObserveWindow(WindowMetrics{ReadRatio: 0.9, Throughput: predicted, P99: p99}); err != nil {
			t.Fatal(err)
		}
	}
	st := ctrl.Stats()
	if st.SLOViolations != 1 {
		t.Errorf("SLO violations = %d, want 1", st.SLOViolations)
	}
	if st.SLORollbacks != 0 || st.Rollbacks != 0 {
		t.Errorf("stats = %+v, want no rollbacks", st)
	}
	if ctrl.LastGood() == nil || st.Commits != 1 {
		t.Errorf("compliant canary should commit: %+v", st)
	}
}

func TestSLOOptionValidation(t *testing.T) {
	tuner := preparedTuner(t)
	app := &recordingApplier{}
	bad := []GuardOptions{
		{SLOP99Max: -1},
		{SLOP99Max: 0.05},                       // ceiling without a compliance bar
		{SLOP99Max: 0.05, SLOMinCompliance: 2},  // compliance out of range
		{SLOP99Max: 0.05, SLOMinCompliance: -1}, // compliance out of range
	}
	for i, opts := range bad {
		if _, err := NewGuardedController(tuner, app, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}
