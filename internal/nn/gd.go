package nn

import "math/rand"

// The plain stochastic-gradient baseline trainer's settings. It serves
// the ablation benchmarks, to show what the LM/Bayesian trainer buys.
const (
	// gdEpochs is the number of passes over the training set.
	gdEpochs = 400
	// gdLearningRate and gdMomentum are the classic SGD knobs.
	gdLearningRate, gdMomentum = 0.01, 0.9
	// gdL2 is the weight-decay coefficient.
	gdL2 = 1e-4
)

// TrainGD fits net with stochastic gradient descent plus momentum;
// seed shuffles the sample order.
func TrainGD(net *Network, xs [][]float64, ys []float64, seed int64) (TrainResult, error) {
	if err := checkTrainingSet(xs, ys); err != nil {
		return TrainResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	grad := make([]float64, net.NumWeights())
	velocity := make([]float64, net.NumWeights())
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}

	var res TrainResult
	for epoch := 1; epoch <= gdEpochs; epoch++ {
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
				g := -e*grad[i] + gdL2*net.Weights[i]
				velocity[i] = gdMomentum*velocity[i] - gdLearningRate*g
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
