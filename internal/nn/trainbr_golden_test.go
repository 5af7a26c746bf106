package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rafiki/internal/golden"
	"rafiki/internal/obs"
	"rafiki/internal/stats"
)

// pipelineShapeSet builds a training set shaped like the tuning
// pipeline's: 220 samples of 6 normalized features (RR and five key
// parameters), so a [6,14,4,1] net has the pipeline's 163 weights and
// the LM kernels run on the 220 x 163 Jacobian they run on in
// production. The response has a
// cliff and a little noise, like the engine's throughput surface.
func pipelineShapeSet(seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, 220)
	ys := make([]float64, 220)
	for i := range xs {
		x := make([]float64, 6)
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		y := 0.6*math.Sin(2*x[0]) - 0.4*x[1]*x[1] + 0.3*x[2]*x[3] + 0.1*x[5]
		if x[4] > 0.3 {
			y -= 0.5
		}
		xs[i] = x
		ys[i] = y + 0.02*rng.NormFloat64()
	}
	return xs, ys
}

// TestTrainBRGolden pins TrainBR's output at the pipeline's shape: the
// whole TrainResult, the weights' digest, and how many Jacobian passes
// the run took (one up front and one per step tried; none to undo a
// rejected step), so any reordering of a floating-point sum anywhere
// under TrainBR fails here. The "rejections" case starts with almost no
// damping and drops it a thousandfold after every accepted step, so most
// epochs overshoot and reject steps first: that is the path on which
// the old Jacobian is swapped back instead of recomputed.
func TestTrainBRGolden(t *testing.T) {
	short := DefaultBROptions()
	short.Epochs = 40
	rejecting := BROptions{Epochs: 25, MuInit: 1e-9, MuInc: 4, MuDec: 1e-3, MuMax: 1e10, MinGrad: 1e-7}
	cases := []struct {
		name string
		seed int64
		opts BROptions
	}{
		{"seed1", 1, short},
		{"seed2", 2, short},
		{"seed3", 3, short},
		{"rejections", 4, rejecting},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xs, ys := pipelineShapeSet(tc.seed)
			net, err := NewNetwork(6, []int{14, 4}, rand.New(rand.NewSource(tc.seed*7919)))
			if err != nil {
				t.Fatal(err)
			}
			if net.NumWeights() != 163 {
				t.Fatalf("net has %d weights, want the pipeline's 163", net.NumWeights())
			}
			reg := obs.NewRegistry()
			opts := tc.opts
			opts.Obs = reg
			res, err := TrainBR(net, xs, ys, opts)
			if err != nil {
				t.Fatal(err)
			}
			var jacEvals float64
			for _, sp := range reg.Snapshot().Spans {
				if sp.Name == "nn.epoch" {
					jacEvals = max(jacEvals, sp.End)
				}
			}
			golden.Check(t, "testdata/trainbr_"+tc.name+".golden", fmt.Appendf(nil,
				"result %+v\njacobian_passes %v\nweights %d sum %v digest %s\n",
				res, jacEvals, len(net.Weights), stats.Sum(net.Weights), golden.Digest(fmt.Append(nil, net.Weights))))
		})
	}
}
