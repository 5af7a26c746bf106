package nn

import (
	"fmt"
	"math/rand"
)

// GDOptions tunes the plain stochastic-gradient baseline trainer, used
// by the ablation benchmarks to show what the LM/Bayesian trainer buys.
type GDOptions struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// LearningRate and Momentum are the classic SGD knobs.
	LearningRate, Momentum float64
	// L2 is the weight-decay coefficient.
	L2 float64
	// Seed shuffles sample order.
	Seed int64
}

// DefaultGDOptions returns a reasonable baseline configuration.
func DefaultGDOptions() GDOptions {
	return GDOptions{
		Epochs:       400,
		LearningRate: 0.01,
		Momentum:     0.9,
		L2:           1e-4,
	}
}

// TrainGD fits net with stochastic gradient descent plus momentum.
func TrainGD(net *Network, xs [][]float64, ys []float64, opts GDOptions) (TrainResult, error) {
	if err := checkTrainingSet(xs, ys); err != nil {
		return TrainResult{}, err
	}
	if opts.Epochs <= 0 {
		return TrainResult{}, fmt.Errorf("nn: epochs must be positive, got %d", opts.Epochs)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	grad := make([]float64, net.NumWeights())
	velocity := make([]float64, net.NumWeights())
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}

	var res TrainResult
	for epoch := 1; epoch <= opts.Epochs; epoch++ {
		res.Epochs = epoch
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			out, err := net.Gradient(xs[idx], grad)
			if err != nil {
				return TrainResult{}, err
			}
			e := ys[idx] - out
			for i := range net.Weights {
				// d(0.5*e^2)/dw = -e * d(out)/dw, plus L2 decay.
				g := -e*grad[i] + opts.L2*net.Weights[i]
				velocity[i] = opts.Momentum*velocity[i] - opts.LearningRate*g
				net.Weights[i] += velocity[i]
			}
		}
	}

	var ed float64
	for i, x := range xs {
		out, err := net.Forward(x)
		if err != nil {
			return TrainResult{}, err
		}
		e := ys[i] - out
		ed += e * e
	}
	res.MSE = ed / float64(len(xs))
	res.Beta = 1
	return res, nil
}
