package core

import (
	"errors"
	"fmt"
	"math"

	"rafiki/internal/config"
	"rafiki/internal/forecast"
)

// GuardOptions tunes the controller's two policies: the forecaster and
// the guard's vetting and canary stages. Zero values disable individual
// checks; DefaultGuardOptions enables every guard check with
// conservative settings.
type GuardOptions struct {
	// Threshold is the minimum workload movement (L1 distance over the
	// characterization vector) that triggers a re-tune; small jitters
	// are ignored to avoid reconfiguration downtime.
	Threshold float64
	// Forecaster, when set, makes the controller proactive: it tunes for
	// the forecast of the next window instead of the window just ended.
	Forecaster forecast.Forecaster
	// MaxStdFrac rejects a recommendation whose ensemble disagreement
	// (std/mean) exceeds this fraction — the surrogate is guessing.
	// 0 disables the check.
	MaxStdFrac float64
	// MaxGainFactor rejects a recommendation predicting more than this
	// multiple of the best throughput measured so far — out-of-band
	// extrapolation. 0 disables; the check is also idle until the first
	// measurement arrives.
	MaxGainFactor float64
	// Probe, when set, benchmarks a candidate configuration with a short
	// measured run before it is applied (the canary probe). A candidate
	// failing ProbeTolerance × prediction is rejected without touching
	// the datastore.
	Probe func(w Workload, cfg config.Config) (float64, error)
	// ProbeTolerance is the fraction of the predicted throughput the
	// probe must reach (default 0.5).
	ProbeTolerance float64
	// CanaryWindows is how many observation windows a freshly applied
	// configuration stays on probation before it is committed as
	// last-known-good (default 2; 0 commits immediately).
	CanaryWindows int
	// RegressionTolerance triggers a rollback when a canarying
	// configuration's measured throughput falls below
	// (1 - RegressionTolerance) × the surrogate's prediction for the
	// current window (default 0.5). 0 disables rollback.
	RegressionTolerance float64
	// SLOP99Max arms the tail-latency objective: a window whose p99
	// latency (virtual seconds, reported via ObserveWindow) exceeds it
	// violates the SLO. A canarying configuration must meet the SLO in
	// at least SLOMinCompliance of its probation windows or it is rolled
	// back — even when its mean throughput passes the regression check,
	// because a config that hits its throughput prediction by starving
	// the tail is exactly the failure the canary exists to catch.
	// 0 disables the objective.
	SLOP99Max float64
	// SLOMinCompliance is the fraction of probation windows that must
	// meet SLOP99Max (required in (0, 1] when SLOP99Max > 0; 1 means
	// every window).
	SLOMinCompliance float64
}

// DefaultGuardOptions enables every guard with conservative settings.
func DefaultGuardOptions() GuardOptions {
	return GuardOptions{
		Threshold:           0.1,
		MaxStdFrac:          0.35,
		MaxGainFactor:       3,
		ProbeTolerance:      0.5,
		CanaryWindows:       2,
		RegressionTolerance: 0.5,
	}
}

// Validate reports option errors.
func (o GuardOptions) Validate() error {
	if o.Threshold < 0 || o.Threshold > 1 {
		return fmt.Errorf("core: threshold %v out of [0,1]", o.Threshold)
	}
	if o.MaxStdFrac < 0 {
		return fmt.Errorf("core: negative MaxStdFrac %v", o.MaxStdFrac)
	}
	if o.MaxGainFactor < 0 {
		return fmt.Errorf("core: negative MaxGainFactor %v", o.MaxGainFactor)
	}
	if o.ProbeTolerance < 0 || o.ProbeTolerance > 1 {
		return fmt.Errorf("core: probe tolerance %v out of [0,1]", o.ProbeTolerance)
	}
	if o.CanaryWindows < 0 {
		return fmt.Errorf("core: negative canary windows %d", o.CanaryWindows)
	}
	if o.RegressionTolerance < 0 || o.RegressionTolerance >= 1 {
		return fmt.Errorf("core: regression tolerance %v out of [0,1)", o.RegressionTolerance)
	}
	if o.SLOP99Max < 0 {
		return fmt.Errorf("core: negative SLO p99 ceiling %v", o.SLOP99Max)
	}
	if o.SLOP99Max > 0 && (o.SLOMinCompliance <= 0 || o.SLOMinCompliance > 1) {
		return fmt.Errorf("core: SLO compliance %v out of (0,1]", o.SLOMinCompliance)
	}
	return nil
}

// GuardStats counts re-tuning outcomes: the controller's one always-on
// ledger, which a guarded controller exports to the tuner's registry
// under the `obs` names (see obs.Registry.Export).
type GuardStats struct {
	// Retunes counts configurations applied (including ones later rolled
	// back); Commits counts the subset that survived their canary.
	Retunes int `obs:"core.guard.retunes"`
	Commits int `obs:"core.guard.commits"`
	// RejectedPredictions counts recommendations vetoed before apply:
	// non-finite or non-positive predictions, excessive ensemble
	// disagreement, or out-of-band gains.
	RejectedPredictions int `obs:"core.guard.rejected_predictions"`
	// ProbeRejections counts candidates the measured probe vetoed.
	ProbeRejections int `obs:"core.guard.probe_rejections"`
	// Rollbacks counts canaries reverted to the last-known-good
	// configuration after a measured regression (throughput or SLO).
	Rollbacks int `obs:"core.guard.rollbacks"`
	// SLOViolations counts observation windows whose p99 exceeded the
	// SLO ceiling; SLORollbacks the subset of Rollbacks triggered by
	// probation compliance falling below SLOMinCompliance.
	SLOViolations int `obs:"core.guard.slo_violations"`
	SLORollbacks  int `obs:"core.guard.slo_rollbacks"`
}

// Applier receives recommended configurations — typically the live
// datastore engine (or cluster) being tuned.
type Applier interface {
	Apply(cfg config.Config) error
}

// Controller is the online reconfiguration loop, the paper's Section 3.8
// (Figure 3): it watches the workload's read ratio per observation
// window and re-tunes the datastore when the workload moves materially.
// Two optional policies ride on the one loop. A forecaster (Section 6's
// future work) makes it tune for the predicted next window rather than
// the one that just ended. A guard hardens it: every recommendation is
// sanity-checked against the surrogate ensemble's own disagreement,
// optionally canaried with a short measured probe before apply, and
// watched for measured regressions for a few windows after apply —
// rolling back to the last-known-good configuration (ultimately the
// space default) instead of letting a bad extrapolation tank the
// datastore it is supposed to tune.
type Controller struct {
	tuner   *Tuner
	applier Applier
	// opts holds the threshold and both policies. The plain and proactive
	// constructors leave every guard field zero, which disables that
	// check; guarded additionally arms the pre-apply vet, the one stage
	// that costs a surrogate call even with every bound at zero.
	opts    GuardOptions
	guarded bool

	haveTuned bool
	lastTuned Workload
	current   config.Config
	lastGood  config.Config // nil means the space default

	// canaryLeft > 0 means current is on probation; sloTotal/sloOk count
	// this probation's windows and the subset that met the p99 ceiling.
	canaryLeft      int
	sloTotal, sloOk int

	maxMeasured float64
	stats       *GuardStats // the ledger: its own allocation
}

// NewController builds the plain reactive loop: tune for the window
// just observed and apply every recommendation as it comes.
func NewController(t *Tuner, a Applier, threshold float64) (*Controller, error) {
	return newController(t, a, GuardOptions{Threshold: threshold}, false)
}

// NewProactiveController builds the loop with a forecaster in front: it
// tunes for the forecast of the next window, so the configuration is in
// place when the regime switch arrives.
func NewProactiveController(t *Tuner, a Applier, f forecast.Forecaster, threshold float64) (*Controller, error) {
	if f == nil {
		return nil, errors.New("core: proactive controller needs a forecaster")
	}
	return newController(t, a, GuardOptions{Threshold: threshold, Forecaster: f}, false)
}

// NewGuardedController builds the loop with the guard policy armed (and
// a forecaster too when opts.Forecaster is set).
func NewGuardedController(t *Tuner, a Applier, opts GuardOptions) (*Controller, error) {
	return newController(t, a, opts, true)
}

func newController(t *Tuner, a Applier, opts GuardOptions, guarded bool) (*Controller, error) {
	if t == nil || a == nil {
		return nil, errors.New("core: controller needs a tuner and an applier")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{tuner: t, applier: a, opts: opts, guarded: guarded, stats: new(GuardStats)}
	if guarded {
		t.opts.Obs.Export(c.stats)
	}
	return c, nil
}

// WindowMetrics is one observation window's report for ObserveWindow:
// its read ratio, mean throughput (ops/s; <= 0 when unmeasured), and
// p99 latency (virtual seconds; <= 0 when unmeasured).
type WindowMetrics struct {
	ReadRatio  float64
	Throughput float64
	P99        float64
}

// Observe reports one finished window by its read ratio alone — an
// unmeasured window, which skips the canary, out-of-band and SLO checks.
func (c *Controller) Observe(readRatio float64) (bool, error) {
	return c.ObserveWindow(WindowMetrics{ReadRatio: readRatio})
}

// ObserveWindow reports one finished window and runs the loop once:
// observe → (forecast) → (canary report card) → threshold → recommend →
// (vet / probe) → apply → (probation). It returns whether the live
// configuration changed — by a fresh apply or by a rollback.
func (c *Controller) ObserveWindow(m WindowMetrics) (bool, error) {
	if m.ReadRatio < 0 || m.ReadRatio > 1 {
		return false, fmt.Errorf("core: read ratio %v out of [0,1]", m.ReadRatio)
	}
	// The forecaster sees every window exactly once, whatever becomes of
	// it below: a window that ends in a rollback is still a transition.
	targetRR := m.ReadRatio
	if c.opts.Forecaster != nil {
		c.opts.Forecaster.Observe(m.ReadRatio)
		targetRR = max(0, min(1, c.opts.Forecaster.Predict()))
	}
	if m.Throughput > c.maxMeasured {
		c.maxMeasured = m.Throughput
	}
	// Report cards before any new decision: the measurements just
	// delivered grade the configuration that served the window. A window
	// with P99 <= 0 carries no tail measurement and skips the SLO check,
	// exactly as Throughput <= 0 skips the canary check.
	if c.opts.SLOP99Max > 0 && m.P99 > 0 {
		if rolled, err := c.checkSLO(m.P99); rolled || err != nil {
			return rolled, err
		}
	}
	if c.canaryLeft > 0 && m.Throughput > 0 {
		if rolled, err := c.checkCanary(RR(m.ReadRatio), m.Throughput); rolled || err != nil {
			return rolled, err
		}
	}

	target := RR(targetRR)
	if c.haveTuned && target.dist(c.lastTuned) < c.opts.Threshold {
		return false, nil
	}
	rec, err := c.tuner.Recommend(target)
	if err != nil {
		return false, err
	}
	if c.guarded {
		ok, err := c.vet(target, rec)
		if err != nil {
			return false, err
		}
		if !ok {
			// The veto still pins lastTuned: re-deriving the same doomed
			// candidate every window would burn search time for nothing.
			c.haveTuned = true
			c.lastTuned = target
			return false, nil
		}
	}
	if err := c.applier.Apply(rec.Config); err != nil {
		return false, fmt.Errorf("core: applying recommendation: %w", err)
	}
	c.haveTuned = true
	c.lastTuned = target
	c.current = rec.Config
	c.stats.Retunes++
	c.tuner.opts.Obs.Counter("core.retunes").Inc()
	if c.opts.CanaryWindows > 0 && (c.opts.RegressionTolerance > 0 || c.opts.SLOP99Max > 0) {
		c.canaryLeft = c.opts.CanaryWindows
		c.sloTotal, c.sloOk = 0, 0
	} else {
		c.commit()
	}
	return true, nil
}

// checkSLO runs the tail-latency objective on one window's p99. A
// canarying configuration whose probation can no longer reach
// SLOMinCompliance is rolled back immediately, before (and regardless
// of) the mean-throughput regression check. It returns whether a
// rollback was applied.
func (c *Controller) checkSLO(p99 float64) (bool, error) {
	met := p99 <= c.opts.SLOP99Max
	if !met {
		c.stats.SLOViolations++
	}
	if c.canaryLeft == 0 {
		return false, nil
	}
	c.sloTotal++
	if met {
		c.sloOk++
	}
	// Even if every remaining probation window meets the SLO, can this
	// canary still reach the compliance bar? If not, waiting out the
	// probation just serves more bad tail.
	remaining := c.canaryLeft - 1
	best := float64(c.sloOk+remaining) / float64(c.sloTotal+remaining)
	if best >= c.opts.SLOMinCompliance {
		return false, nil
	}
	if err := c.rollback(); err != nil {
		return false, err
	}
	c.stats.SLORollbacks++
	return true, nil
}

// checkCanary compares the probationary configuration's measurement
// against the surrogate's own prediction for this window, rolling back
// on a regression and committing after the probation expires. It
// returns whether a rollback was applied.
func (c *Controller) checkCanary(w Workload, measured float64) (bool, error) {
	predicted, err := c.tuner.surrogate.Predict(w, c.current)
	if err != nil {
		return false, err
	}
	if c.opts.RegressionTolerance > 0 && isFinite(predicted) && predicted > 0 &&
		measured < (1-c.opts.RegressionTolerance)*predicted {
		err := c.rollback()
		return err == nil, err
	}
	c.canaryLeft--
	if c.canaryLeft == 0 {
		c.commit()
	}
	return false, nil
}

// commit promotes the live configuration to last-known-good.
func (c *Controller) commit() {
	c.canaryLeft = 0
	c.sloTotal, c.sloOk = 0, 0
	c.lastGood = c.current
	c.stats.Commits++
}

// rollback reverts to the last-known-good configuration — the space
// default when nothing has ever been committed.
func (c *Controller) rollback() error {
	target := c.lastGood
	if target == nil {
		target = c.tuner.space.Default()
	}
	if err := c.applier.Apply(target); err != nil {
		return fmt.Errorf("core: rolling back: %w", err)
	}
	c.current = target
	c.canaryLeft = 0
	c.sloTotal, c.sloOk = 0, 0
	c.stats.Rollbacks++
	return nil
}

// vet sanity-checks a recommendation before it touches the datastore.
func (c *Controller) vet(target Workload, rec OptimizeResult) (bool, error) {
	mean, std, err := c.tuner.surrogate.PredictWithStd(target, rec.Config)
	if err != nil {
		return false, err
	}
	if !isFinite(mean) || mean <= 0 {
		c.stats.RejectedPredictions++
		return false, nil
	}
	if c.opts.MaxStdFrac > 0 && (!isFinite(std) || std/mean > c.opts.MaxStdFrac) {
		c.stats.RejectedPredictions++
		return false, nil
	}
	if c.opts.MaxGainFactor > 0 && c.maxMeasured > 0 && mean > c.opts.MaxGainFactor*c.maxMeasured {
		c.stats.RejectedPredictions++
		return false, nil
	}
	if c.opts.Probe != nil {
		measured, err := c.opts.Probe(target, rec.Config)
		if err != nil {
			return false, fmt.Errorf("core: canary probe: %w", err)
		}
		if measured < c.opts.ProbeTolerance*mean {
			c.stats.ProbeRejections++
			return false, nil
		}
	}
	return true, nil
}

// Current returns the live configuration (nil before the first apply).
// The map is shared with the controller, not a copy.
//
//rafiki:view
func (c *Controller) Current() config.Config { return c.current }

// LastGood returns the last committed configuration (nil before the
// first commit, meaning the space default is the rollback target).
// The map is shared with the controller, not a copy.
//
//rafiki:view
func (c *Controller) LastGood() config.Config { return c.lastGood }

// Stats returns the loop's outcome counters. Without a guard every
// applied recommendation commits at once and nothing is ever rejected
// or rolled back.
func (c *Controller) Stats() GuardStats { return *c.stats }

// Retunes counts applied recommendations (rollbacks are counted by
// Stats, not here).
func (c *Controller) Retunes() int { return c.stats.Retunes }

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
