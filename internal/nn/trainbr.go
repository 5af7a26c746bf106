package nn

import (
	"errors"
	"fmt"
	"math"

	"rafiki/internal/linalg"
	"rafiki/internal/obs"
)

// BROptions tunes the Bayesian-regularized Levenberg-Marquardt trainer.
type BROptions struct {
	// Epochs caps outer iterations; the paper trains "until convergence
	// or 200 epochs, whichever comes first".
	Epochs int
	// MuInit, MuInc, MuDec, MuMax control the LM damping schedule.
	MuInit, MuInc, MuDec, MuMax float64
	// MinGrad stops training when the gradient norm falls below it.
	MinGrad float64
	// Obs, when non-nil, receives per-epoch spans on the cumulative
	// jacobian-evaluations axis (the trainer's dominant cost) and an
	// epoch counter. Fit propagates ModelConfig.Obs here.
	Obs *obs.Registry
}

// DefaultBROptions mirrors MATLAB trainbr defaults.
func DefaultBROptions() BROptions {
	return BROptions{
		Epochs:  200,
		MuInit:  0.005,
		MuInc:   10,
		MuDec:   0.1,
		MuMax:   1e10,
		MinGrad: 1e-7,
	}
}

// TrainResult summarizes a training run.
type TrainResult struct {
	// Epochs is how many outer iterations ran.
	Epochs int
	// MSE is the final mean squared error on the (normalized) training
	// set.
	MSE float64
	// Alpha and Beta are the final regularization hyperparameters.
	Alpha, Beta float64
	// EffectiveParams is MacKay's gamma — how many weights the data
	// actually supports (the regularizer suppresses the rest).
	EffectiveParams float64
	// Converged reports whether a stopping criterion other than the
	// epoch cap fired.
	Converged bool
}

// checkTrainingSet is the trainers' shared input check: one target per
// input row, at least one row, and every value finite. A NaN or Inf
// sample would not fail training — it would turn the objective into
// NaN, which no step can lower, and the untrained net would be
// reported as converged — so it is rejected here, naming the first
// offending sample.
func checkTrainingSet(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return fmt.Errorf("nn: bad training set: %d inputs, %d targets", len(xs), len(ys))
	}
	for i, x := range xs {
		for j, v := range x {
			if !finite(v) {
				return fmt.Errorf("nn: non-finite training input xs[%d][%d] = %v", i, j, v)
			}
		}
		if !finite(ys[i]) {
			return fmt.Errorf("nn: non-finite training target ys[%d] = %v", i, ys[i])
		}
	}
	return nil
}

// TrainBR fits net to (xs, ys) with Levenberg-Marquardt steps on the
// regularized objective F = beta*Ed + alpha*Ew, re-estimating alpha and
// beta each epoch by MacKay's evidence procedure. Inputs must already
// be normalized and finite; see Model for the end-to-end wrapper.
func TrainBR(net *Network, xs [][]float64, ys []float64, opts BROptions) (TrainResult, error) {
	if err := checkTrainingSet(xs, ys); err != nil {
		return TrainResult{}, err
	}
	if opts.Epochs <= 0 {
		return TrainResult{}, errors.New("nn: epochs must be positive")
	}
	t, err := newLMTrainer(net, xs, ys, opts)
	if err != nil {
		return TrainResult{}, err
	}
	epochCounter := opts.Obs.Counter("nn.epochs")
	var res TrainResult
	for epoch := 1; epoch <= opts.Epochs; epoch++ {
		res.Epochs = epoch
		epochCounter.Inc()
		startEvals := t.jacEvals

		gradNorm, err := t.gradientNorm()
		if err != nil {
			return TrainResult{}, err
		}
		if gradNorm < opts.MinGrad {
			res.Converged = true
			break
		}
		improved, err := t.step()
		if err != nil {
			return TrainResult{}, err
		}
		if opts.Obs != nil {
			// One epoch's cost in jacobian passes.
			opts.Obs.Record(obs.Span{
				Name:  "nn.epoch",
				Start: float64(startEvals),
				End:   float64(t.jacEvals),
				Unit:  "jacevals",
				Attrs: map[string]float64{"epoch": float64(epoch), "mse": t.ed / float64(len(xs)), "mu": t.mu},
			})
		}
		if !improved {
			res.Converged = true
			break
		}
	}
	res.MSE = t.ed / float64(len(xs))
	res.Alpha = t.alpha
	res.Beta = t.beta
	res.EffectiveParams = t.gamma
	return res, nil
}

// lmTrainer is one TrainBR run: the LM/evidence state and every buffer
// the epoch loop touches — two Jacobians with their error vectors, the
// Gram matrix, the damped Hessian, the solver's factorization and the
// step vectors — allocated once up front so that the loop itself runs
// allocation-free (TestTrainBRAllocGuard pins this), which matters when
// an ensemble trains many members concurrently. Nothing here outlives
// TrainBR.
type lmTrainer struct {
	net  *Network
	xs   [][]float64
	ys   []float64
	opts BROptions

	mu, alpha, beta float64
	// ed and ew are the data and weight sums of squares at net.Weights;
	// gamma is the last evidence update's effective parameter count.
	ed, ew, gamma float64

	// jac and errs are the Jacobian and residuals at net.Weights, and
	// jtj is always jac's Gram matrix: it is recomputed when a step is
	// accepted and at no other time, so the evidence update and the next
	// epoch's damped solves share one pass. A trial step evaluates into
	// jacTry/errsTry and the pairs swap on acceptance, so undoing a
	// rejected step is restoring the weights.
	jac, jacTry   *linalg.Matrix
	errs, errsTry []float64
	jtj, h        *linalg.Matrix

	jte, rhs, delta, backup []float64
	solver                  linalg.Solver
	ws                      Workspace

	// jacEvals is the trainer's work clock: each jacobian pass is a
	// fixed cost, and epochs that need many damping retries take
	// proportionally more of them.
	jacEvals int
}

func newLMTrainer(net *Network, xs [][]float64, ys []float64, opts BROptions) (*lmTrainer, error) {
	nSamples, nWeights := len(xs), net.NumWeights()
	t := &lmTrainer{
		net: net, xs: xs, ys: ys, opts: opts,
		mu: opts.MuInit, beta: 1,
		jac:     linalg.New(nSamples, nWeights),
		jacTry:  linalg.New(nSamples, nWeights),
		errs:    make([]float64, nSamples),
		errsTry: make([]float64, nSamples),
		jtj:     linalg.New(nWeights, nWeights),
		h:       linalg.New(nWeights, nWeights),
		jte:     make([]float64, nWeights),
		rhs:     make([]float64, nWeights),
		delta:   make([]float64, nWeights),
		backup:  make([]float64, nWeights),
	}
	var err error
	if t.ed, t.ew, err = t.jacobian(t.jac, t.errs); err != nil {
		return nil, err
	}
	if err := t.jac.AtAInto(t.jtj); err != nil {
		return nil, err
	}
	return t, nil
}

// jacobian fills jac and errs for the current weights and returns
// (Ed, Ew).
//
//rafiki:hot
func (t *lmTrainer) jacobian(jac *linalg.Matrix, errs []float64) (ed, ew float64, err error) {
	t.jacEvals++
	nWeights := jac.Cols
	for i, x := range t.xs {
		out, err := t.net.GradientWS(&t.ws, x, jac.Data[i*nWeights:(i+1)*nWeights])
		if err != nil {
			return 0, 0, err
		}
		e := t.ys[i] - out
		errs[i] = e
		ed += e * e
	}
	for _, w := range t.net.Weights {
		ew += w * w
	}
	return ed, ew, nil
}

// gradientNorm refreshes Jᵀe and returns the norm of the gradient of
// F, -2*beta*Jᵀe + 2*alpha*w.
//
//rafiki:hot
func (t *lmTrainer) gradientNorm() (float64, error) {
	if err := t.jac.AtVecInto(t.jte, t.errs); err != nil {
		return 0, err
	}
	var sq float64
	for i, w := range t.net.Weights {
		g := -2*t.beta*t.jte[i] + 2*t.alpha*w
		sq += g * g
	}
	return math.Sqrt(sq), nil
}

// step is the body of one epoch after the gradient test: damped
// Gauss-Newton steps at rising mu until one lowers F, then MacKay's
// evidence update of alpha and beta at the new point. It reports
// whether a step was accepted; when none was, mu has passed MuMax and
// weights, Jacobian and hyperparameters are as they were.
//
//rafiki:hot
func (t *lmTrainer) step() (bool, error) {
	weights := t.net.Weights
	fCur := t.beta*t.ed + t.alpha*t.ew
	improved := false
	for t.mu <= t.opts.MuMax {
		// Solve (beta*JtJ + (alpha+mu)*I) delta = beta*Jt*e - alpha*w.
		if err := t.h.ScaleFrom(t.jtj, t.beta); err != nil {
			return false, err
		}
		if err := t.h.AddDiagonal(t.alpha + t.mu); err != nil {
			return false, err
		}
		for i, w := range weights {
			t.rhs[i] = t.beta*t.jte[i] - t.alpha*w
		}
		if err := t.solver.SolveSPD(t.h, t.rhs, t.delta); err != nil {
			// Not positive definite at this damping: raise mu.
			t.mu *= t.opts.MuInc
			continue
		}
		copy(t.backup, weights)
		for i := range weights {
			weights[i] += t.delta[i]
		}
		newEd, newEw, err := t.jacobian(t.jacTry, t.errsTry)
		if err != nil {
			return false, err
		}
		if t.beta*newEd+t.alpha*newEw < fCur {
			t.ed, t.ew = newEd, newEw
			t.jac, t.jacTry = t.jacTry, t.jac
			t.errs, t.errsTry = t.errsTry, t.errs
			t.mu = math.Max(t.mu*t.opts.MuDec, 1e-20)
			improved = true
			break
		}
		copy(weights, t.backup)
		t.mu *= t.opts.MuInc
	}
	if !improved {
		return false, nil
	}

	// The Gauss-Newton Hessian at the new point: for the evidence
	// update now, and for the next epoch's solves.
	if err := t.jac.AtAInto(t.jtj); err != nil {
		return false, err
	}
	if err := t.h.ScaleFrom(t.jtj, t.beta); err != nil {
		return false, err
	}
	if err := t.h.AddDiagonal(t.alpha + 1e-12); err != nil {
		return false, err
	}
	nWeights, nSamples := float64(len(weights)), float64(len(t.xs))
	gamma := nWeights
	if tr, err := t.solver.TraceInverseSPD(t.h); err == nil {
		gamma = nWeights - t.alpha*tr
	}
	if gamma < 0 {
		gamma = 0
	}
	if gamma > nWeights {
		gamma = nWeights
	}
	if t.ew > 0 {
		t.alpha = gamma / (2 * t.ew)
	}
	denom := 2 * t.ed
	if denom > 0 && nSamples > gamma {
		t.beta = (nSamples - gamma) / denom
	}
	t.gamma = gamma
	return true, nil
}
