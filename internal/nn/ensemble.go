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
	// BR carries the BR trainer's options; a zero value uses the
	// package defaults. The GD trainer has no options: its seed is
	// derived from Seed per member.
	BR BROptions
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

	// wsPool recycles per-goroutine inference scratch across Predict,
	// PredictWithStd and PredictBatchInto calls, keeping steady-state
	// prediction allocation-free.
	wsPool sync.Pool
}

// modelWS is one goroutine's inference scratch, sized to the largest chunk
// it has served: normalized rows, activation planes, row sums, member outputs.
type modelWS struct {
	nx, sums, member []float64
	act              [2][]float64
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

	// Members train concurrently on par.Staged: member k's
	// initialization and trainer seeds are pure functions of (cfg.Seed,
	// k), and its telemetry goes to a stage merged in member order. Any
	// worker count therefore produces a bit-identical model and snapshot
	// (see TestFitDeterministicAcrossWorkers).
	type member struct {
		net *Network
		res TrainResult
	}
	members, err := par.Staged(cfg.EnsembleSize, par.Options{Workers: cfg.Workers, Name: "nn.fit", Obs: cfg.Obs}, func(k int, stage *obs.Registry) (member, error) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*7919))
		net, err := NewNetwork(len(xs[0]), cfg.Hidden, rng)
		if err != nil {
			return member{}, err
		}
		var res TrainResult
		switch cfg.Trainer {
		case TrainerBR:
			br := cfg.BR
			br.Obs = stage
			res, err = TrainBR(net, normX, normY, br)
		case TrainerGD:
			res, err = TrainGD(net, normX, normY, cfg.Seed+int64(k))
		default:
			err = fmt.Errorf("nn: unknown trainer %d", cfg.Trainer)
		}
		if err != nil {
			return member{}, fmt.Errorf("nn: training member %d: %w", k, err)
		}
		return member{net: net, res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	// One span per member, on an axis of cumulative epochs, after every
	// member's own spans.
	if cfg.Obs != nil {
		totalEpochs := 0
		for k, mem := range members {
			converged := 0.0
			if mem.res.Converged {
				converged = 1
			}
			cfg.Obs.Record(obs.Span{
				Name:  "nn.member",
				Start: float64(totalEpochs),
				End:   float64(totalEpochs + mem.res.Epochs),
				Unit:  "epochs",
				Attrs: map[string]float64{"member": float64(k), "mse": mem.res.MSE, "converged": converged},
			})
			totalEpochs += mem.res.Epochs
		}
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

// predictRows is the one inference path (Predict and PredictWithStd are a
// batch of one): it leaves row r's member outputs, normalized, summed in
// member order at w.sums[r], and row 0's output of member k at w.member[k].
// The rows' scratch is in dense's layout (at).
func (m *Model) predictRows(w *modelWS, xs [][]float64) error {
	n, in := len(xs), len(m.inNorm.Min)
	nb := n &^ 3
	w.nx = grow(w.nx, n*in)
	for r, x := range xs {
		stride := 1
		if r < nb {
			stride = 4
		}
		if err := m.inNorm.applyStride(w.nx[at(r, 0, in, nb):], stride, x); err != nil {
			return err
		}
	}
	w.sums, w.member = grow(w.sums, n), grow(w.member, len(m.nets))
	clear(w.sums)
	prefix := sharedPrefix(w.nx, n, in)
	for k, net := range m.nets {
		x, shared := w.nx, prefix
		for l := 0; l+1 < len(net.Sizes); l++ {
			w.act[l%2] = grow(w.act[l%2], n*net.Sizes[l+1])
			wts, b := net.layer(l)
			dense(wts, b, x, w.act[l%2], n, net.Sizes[l], shared, l+2 < len(net.Sizes))
			x, shared = w.act[l%2], 0
		}
		for r, v := range x { // one output unit: at(r, 0, 1, nb) is r
			w.sums[r] += v
		}
		w.member[k] = x[0]
	}
	return nil
}

// at is where an n-row scratch of width features keeps row r's feature
// j: its first nb = n &^ 3 rows as blocks of four, [block][feature][row],
// so that a block's four values of a feature are adjacent lanes; the
// rows after them one after another. Block r/4 and leftover row r both
// start at r*width.
func at(r, j, width, nb int) int {
	if r < nb {
		return r&^3*width + 4*j + r&3
	}
	return r*width + j
}

// sharedPrefix is how many leading inputs all n rows of x (in wide, in
// dense's layout) share bit for bit: in a GA brood, the workload vector.
//
//rafiki:hot
func sharedPrefix(x []float64, n, in int) int {
	nb := n &^ 3
	for j := 0; j < in; j++ {
		x0 := math.Float64bits(x[at(0, j, in, nb)])
		for r := 1; r < n; r++ {
			if math.Float64bits(x[at(r, j, in, nb)]) != x0 {
				return j
			}
		}
	}
	return in
}

// dense is the inference kernel, one layer for n rows in at's layout:
// y[r][o] = act(b[o] + Σ_i w[o][i]·x[r][i]), added in order i = 0, 1, …,
// so each output is bit-identical to a row-at-a-time pass. Per unit the
// shared inputs' partial sum is taken once, from row 0. Full blocks of
// four rows then run on the assembly kernel where useKernel is set (the
// layer's dot products, then one tanh pass over its full-block outputs),
// else on the portable four-row block; the rows after the last full
// block run one at a time. Every product is rounded before it is added,
// so no compiler can fuse a chain into something else.
//
//rafiki:hot
func dense(w, b, x, y []float64, n, in, shared int, hidden bool) {
	units := len(b)
	if n == 1 { // a batch of one needs no block bookkeeping
		for o, bo := range b {
			row := w[o*in : o*in+in]
			for i, v := range x[:in] {
				bo += float64(row[i] * v)
			}
			if hidden {
				bo = math.Tanh(bo)
			}
			y[o] = bo
		}
		return
	}
	nb := n &^ 3
	for o, bo := range b {
		row := w[o*in : o*in+in]
		pre := bo
		for i, wi := range row[:shared] {
			pre += float64(wi * x[at(0, i, in, nb)])
		}
		switch {
		case useKernel && nb > 0:
			dotBlocks(y[4*o:], 4*units, x[4*shared:], 4*in, row[shared:], pre, nb/4)
		case !useKernel:
			for r := 0; r < nb; r += 4 {
				xb, yb := x[r*in:r*in+4*in], y[r*units+4*o:r*units+4*o+4]
				s0, s1, s2, s3 := pre, pre, pre, pre
				for i := shared; i < in; i++ {
					wi, xi := row[i], xb[4*i:4*i+4]
					s0 += float64(wi * xi[0])
					s1 += float64(wi * xi[1])
					s2 += float64(wi * xi[2])
					s3 += float64(wi * xi[3])
				}
				if hidden {
					s0, s1, s2, s3 = math.Tanh(s0), math.Tanh(s1), math.Tanh(s2), math.Tanh(s3)
				}
				yb[0], yb[1], yb[2], yb[3] = s0, s1, s2, s3
			}
		}
		for r := nb; r < n; r++ {
			xr := x[r*in : r*in+in]
			s := pre
			for i := shared; i < in; i++ {
				s += float64(row[i] * xr[i])
			}
			if hidden {
				s = math.Tanh(s)
			}
			y[r*units+o] = s
		}
	}
	if useKernel && hidden {
		tanhBlocks(y[:nb*units])
	}
}

// grow returns buf resliced to n, reallocating only when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Predict returns the ensemble-mean prediction for a raw feature row.
// One surrogate call costs microseconds — the property that lets the GA
// explore thousands of configurations per second (Section 4.8).
// Scratch is pooled, so steady-state calls do not allocate; Predict is
// safe to call concurrently.
func (m *Model) Predict(x []float64) (float64, error) {
	var p [1]float64
	err := m.predictInto(p[:], [][]float64{x})
	return p[0], err
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
	return par.DoRange(len(xs), par.Options{Workers: m.Workers, Name: "nn.predict", Obs: m.Obs}, batch{m, out, xs}, predictChunk)
}

// batch is one PredictBatchInto call, as each of its chunks sees it.
type batch struct {
	m   *Model
	out []float64
	xs  [][]float64
}

// predictChunk predicts rows [lo, hi) of a batch.
func predictChunk(b batch, lo, hi int) error {
	return b.m.predictInto(b.out[lo:hi], b.xs[lo:hi])
}

// predictInto predicts xs into out on pooled scratch. Its slices are not
// a batch's fields, which escape together, so Predict's stay on the stack.
func (m *Model) predictInto(out []float64, xs [][]float64) error {
	w := m.getWS()
	defer m.putWS(w)
	if err := m.predictRows(w, xs); err != nil {
		return err
	}
	for r, sum := range w.sums {
		out[r] = m.outNorm.Invert(sum / float64(len(m.nets)))
	}
	return nil
}

// PredictWithStd returns the ensemble-mean prediction and the standard
// deviation across surviving members (in raw output units) — a
// confidence signal: disagreement flags regions of the configuration
// space the training data barely covers.
func (m *Model) PredictWithStd(x []float64) (mean, std float64, err error) {
	w := m.getWS()
	defer m.putWS(w)
	if err := m.predictRows(w, [][]float64{x}); err != nil {
		return 0, 0, err
	}
	outs, sum := w.member, 0.0
	for i, out := range outs {
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
