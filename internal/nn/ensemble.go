package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"rafiki/internal/obs"
	"rafiki/internal/par"
)

// Trainer selects the fitting algorithm for Model.
type Trainer int

// Available trainers.
const (
	// TrainerBR is Levenberg-Marquardt with Bayesian regularization,
	// the paper's choice (MATLAB trainbr).
	TrainerBR Trainer = iota + 1
	// TrainerGD is stochastic gradient descent, kept as an ablation
	// baseline.
	TrainerGD
)

// ModelConfig configures the end-to-end surrogate model.
type ModelConfig struct {
	// Hidden is the hidden-layer architecture; the paper uses [14, 4].
	Hidden []int
	// EnsembleSize is how many networks to train from different
	// initializations (20 in the paper).
	EnsembleSize int
	// PruneFraction removes the worst-by-training-error networks
	// (0.3 in the paper, leaving 14 of 20).
	PruneFraction float64
	// Trainer picks the algorithm (default TrainerBR).
	Trainer Trainer
	// BR and GD carry trainer-specific options; zero values use the
	// package defaults.
	BR BROptions
	GD GDOptions
	// Seed derives each member's initialization.
	Seed int64
	// Workers bounds how many ensemble members train concurrently;
	// <= 0 means one per CPU. Member k's initialization and trainer
	// seeds depend only on Seed and k, and telemetry is staged and
	// merged in member order, so any worker count produces the same
	// model and the same observability snapshot. The fitted Model
	// inherits this as its prediction-batch parallelism.
	Workers int
	// Obs, when non-nil, receives per-member training spans on the
	// cumulative-epochs axis and is propagated to the BR trainer for
	// per-epoch spans. Inherited by the fitted Model for batch-
	// prediction counters.
	Obs *obs.Registry
}

// DefaultModelConfig mirrors the paper's setup.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		Hidden:        []int{14, 4},
		EnsembleSize:  20,
		PruneFraction: 0.3,
		Trainer:       TrainerBR,
		BR:            DefaultBROptions(),
		GD:            DefaultGDOptions(),
	}
}

// Model is a trained, normalized surrogate: it owns the input/output
// scalers and the surviving ensemble members, and predicts raw-scale
// throughput from raw-scale feature vectors.
type Model struct {
	inNorm  *Normalizer
	outNorm *ScalarNormalizer
	nets    []*Network
	results []TrainResult

	// Workers bounds prediction-batch parallelism (<= 0: one worker
	// per CPU). Runtime-only: it is not serialized, and batch results
	// are index-addressed so any value yields identical output.
	Workers int
	// Obs, when non-nil, receives the batch-prediction counter and the
	// batch stage's worker gauge. Runtime-only; not serialized.
	Obs *obs.Registry

	// wsPool recycles per-goroutine prediction scratch (normalized
	// input + forward-pass workspace) across Predict/PredictBatch
	// calls, keeping steady-state prediction allocation-free.
	wsPool sync.Pool
}

// modelWS is one goroutine's prediction scratch.
type modelWS struct {
	nx   []float64
	ws   Workspace
	outs []float64
}

func (m *Model) getWS() *modelWS {
	if v := m.wsPool.Get(); v != nil {
		return v.(*modelWS)
	}
	return &modelWS{}
}

func (m *Model) putWS(w *modelWS) { m.wsPool.Put(w) }

// Fit trains a surrogate on raw feature rows xs and raw targets ys.
func Fit(xs [][]float64, ys []float64, cfg ModelConfig) (*Model, error) {
	if err := checkTrainingSet(xs, ys); err != nil {
		return nil, err
	}
	if cfg.EnsembleSize <= 0 {
		return nil, fmt.Errorf("nn: ensemble size must be positive, got %d", cfg.EnsembleSize)
	}
	if cfg.PruneFraction < 0 || cfg.PruneFraction >= 1 {
		return nil, fmt.Errorf("nn: prune fraction %v out of [0,1)", cfg.PruneFraction)
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{14, 4}
	}
	if cfg.Trainer == 0 {
		cfg.Trainer = TrainerBR
	}
	if cfg.BR.Epochs == 0 {
		cfg.BR = DefaultBROptions()
	}
	if cfg.GD.Epochs == 0 {
		cfg.GD = DefaultGDOptions()
	}

	inNorm, err := FitNormalizer(xs)
	if err != nil {
		return nil, err
	}
	outNorm, err := FitScalar(ys)
	if err != nil {
		return nil, err
	}
	normX := make([][]float64, len(xs))
	for i, x := range xs {
		nx, err := inNorm.Apply(x)
		if err != nil {
			return nil, err
		}
		normX[i] = nx
	}
	normY := make([]float64, len(ys))
	for i, y := range ys {
		normY[i] = outNorm.Apply(y)
	}

	// Members train concurrently: member k's initialization and trainer
	// seeds are pure functions of (cfg.Seed, k), results land in
	// index-addressed slots, and each member's telemetry goes to its own
	// obs stage, merged in member order below. Any worker count
	// therefore produces a bit-identical model and snapshot (see
	// TestFitDeterministicAcrossWorkers).
	type member struct {
		net *Network
		res TrainResult
	}
	members := make([]member, cfg.EnsembleSize)
	stages := make([]*obs.Registry, cfg.EnsembleSize)
	err = par.Do(cfg.EnsembleSize, par.Options{Workers: cfg.Workers, Name: "nn.fit", Obs: cfg.Obs}, func(k int) error {
		stage := cfg.Obs.Stage()
		stages[k] = stage
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*7919))
		net, err := NewNetwork(len(xs[0]), cfg.Hidden, rng)
		if err != nil {
			return err
		}
		var res TrainResult
		switch cfg.Trainer {
		case TrainerBR:
			br := cfg.BR
			br.Obs = stage
			res, err = TrainBR(net, normX, normY, br)
		case TrainerGD:
			gd := cfg.GD
			gd.Seed = cfg.Seed + int64(k)
			res, err = TrainGD(net, normX, normY, gd)
		default:
			err = fmt.Errorf("nn: unknown trainer %d", cfg.Trainer)
		}
		if err != nil {
			return fmt.Errorf("nn: training member %d: %w", k, err)
		}
		members[k] = member{net: net, res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	totalEpochs := 0
	for k := range members {
		cfg.Obs.Merge(stages[k])
		res := members[k].res
		if cfg.Obs != nil {
			converged := 0.0
			if res.Converged {
				converged = 1
			}
			cfg.Obs.Record(obs.Span{
				Name:  "nn.member",
				Start: float64(totalEpochs),
				End:   float64(totalEpochs + res.Epochs),
				Unit:  "epochs",
				Attrs: map[string]float64{"member": float64(k), "mse": res.MSE, "converged": converged},
			})
		}
		totalEpochs += res.Epochs
	}

	// Simple ensemble pruning: drop the PruneFraction of members with
	// the highest training error (Section 3.6.2).
	sort.SliceStable(members, func(i, j int) bool {
		return members[i].res.MSE < members[j].res.MSE
	})
	keep := len(members) - int(float64(len(members))*cfg.PruneFraction)
	if keep < 1 {
		keep = 1
	}
	m := &Model{inNorm: inNorm, outNorm: outNorm, Workers: cfg.Workers, Obs: cfg.Obs}
	for _, mem := range members[:keep] {
		m.nets = append(m.nets, mem.net)
		m.results = append(m.results, mem.res)
	}
	return m, nil
}

// Size returns the surviving ensemble member count.
func (m *Model) Size() int { return len(m.nets) }

// InputWidth returns the feature-vector width the model was trained on
// (0 for an uninitialized model).
func (m *Model) InputWidth() int {
	if m.inNorm == nil {
		return 0
	}
	return len(m.inNorm.Min)
}

// Validate checks the model's numeric integrity: it must hold at least
// one network, every normalizer bound and weight must be finite, and
// each input dimension's range must be non-inverted. A model that fails
// here would predict NaN (or silently nonsense), so loaders reject it
// up front instead of letting the poison reach the online tuner.
func (m *Model) Validate() error {
	if len(m.nets) == 0 {
		return fmt.Errorf("nn: model has no networks")
	}
	if m.inNorm == nil || m.outNorm == nil {
		return fmt.Errorf("nn: model has no normalizers")
	}
	for i := range m.inNorm.Min {
		lo, hi := m.inNorm.Min[i], m.inNorm.Max[i]
		if !finite(lo) || !finite(hi) {
			return fmt.Errorf("nn: non-finite input normalizer bound at dim %d", i)
		}
		if lo > hi {
			return fmt.Errorf("nn: inverted input normalizer range [%v, %v] at dim %d", lo, hi, i)
		}
	}
	if !finite(m.outNorm.Min) || !finite(m.outNorm.Max) {
		return fmt.Errorf("nn: non-finite output normalizer bounds")
	}
	for k, net := range m.nets {
		for j, w := range net.Weights {
			if !finite(w) {
				return fmt.Errorf("nn: non-finite weight %d in network %d", j, k)
			}
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Results returns the surviving members' training summaries.
func (m *Model) Results() []TrainResult {
	return append([]TrainResult(nil), m.results...)
}

// predictWS computes the ensemble-mean prediction using the given
// scratch. The arithmetic is identical to the allocating path.
func (m *Model) predictWS(w *modelWS, x []float64) (float64, error) {
	if len(w.nx) != len(m.inNorm.Min) {
		w.nx = make([]float64, len(m.inNorm.Min))
	}
	if err := m.inNorm.ApplyInto(w.nx, x); err != nil {
		return 0, err
	}
	var sum float64
	for _, net := range m.nets {
		out, err := net.ForwardWS(&w.ws, w.nx)
		if err != nil {
			return 0, err
		}
		sum += out
	}
	return m.outNorm.Invert(sum / float64(len(m.nets))), nil
}

// Predict returns the ensemble-mean prediction for a raw feature row.
// One surrogate call costs microseconds — the property that lets the GA
// explore thousands of configurations per second (Section 4.8).
// Scratch is pooled, so steady-state calls do not allocate; Predict is
// safe to call concurrently.
func (m *Model) Predict(x []float64) (float64, error) {
	w := m.getWS()
	defer m.putWS(w)
	return m.predictWS(w, x)
}

// PredictBatch predicts every row, allocating only the result slice.
func (m *Model) PredictBatch(xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	if err := m.PredictBatchInto(out, xs); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto predicts every row of xs into out (same length),
// fanning the rows across m.Workers goroutines in contiguous chunks.
// Each chunk uses its own pooled scratch and writes index-addressed
// results, so the output is identical for every worker count. When
// m.Obs is enabled it counts rows on "nn.batch_predictions" and
// reports the stage's worker occupancy.
func (m *Model) PredictBatchInto(out []float64, xs [][]float64) error {
	if len(out) != len(xs) {
		return fmt.Errorf("nn: batch out length %d, want %d", len(out), len(xs))
	}
	if len(xs) == 0 {
		return nil
	}
	m.Obs.Counter("nn.batch_predictions").Add(uint64(len(xs)))
	return par.DoRange(len(xs), par.Options{Workers: m.Workers, Name: "nn.predict", Obs: m.Obs}, func(lo, hi int) error {
		w := m.getWS()
		defer m.putWS(w)
		for i := lo; i < hi; i++ {
			p, err := m.predictWS(w, xs[i])
			if err != nil {
				return err
			}
			out[i] = p
		}
		return nil
	})
}

// PredictWithStd returns the ensemble-mean prediction and the standard
// deviation across surviving members (in raw output units) — a
// confidence signal: disagreement flags regions of the configuration
// space the training data barely covers.
func (m *Model) PredictWithStd(x []float64) (mean, std float64, err error) {
	w := m.getWS()
	defer m.putWS(w)
	if len(w.nx) != len(m.inNorm.Min) {
		w.nx = make([]float64, len(m.inNorm.Min))
	}
	if err := m.inNorm.ApplyInto(w.nx, x); err != nil {
		return 0, 0, err
	}
	if cap(w.outs) < len(m.nets) {
		w.outs = make([]float64, len(m.nets))
	}
	outs := w.outs[:len(m.nets)]
	var sum float64
	for i, net := range m.nets {
		out, err := net.ForwardWS(&w.ws, w.nx)
		if err != nil {
			return 0, 0, err
		}
		outs[i] = m.outNorm.Invert(out)
		sum += outs[i]
	}
	mean = sum / float64(len(outs))
	if len(outs) < 2 {
		return mean, 0, nil
	}
	var ss float64
	for _, o := range outs {
		d := o - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(outs)-1)), nil
}
