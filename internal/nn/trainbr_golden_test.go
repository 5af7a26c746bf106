package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"rafiki/internal/obs"
)

// pipelineShapeSet builds a training set shaped like the tuning
// pipeline's: 220 samples of 8 normalized features, so an [8,14,4,1]
// net has the pipeline's 191 weights and the LM kernels run on the
// 220 x 191 Jacobian they run on in production. The response has a
// cliff and a little noise, like the engine's throughput surface.
func pipelineShapeSet(seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, 220)
	ys := make([]float64, 220)
	for i := range xs {
		x := make([]float64, 8)
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		y := 0.6*math.Sin(2*x[0]) - 0.4*x[1]*x[1] + 0.3*x[2]*x[3] + 0.1*x[7]
		if x[4] > 0.3 {
			y -= 0.5
		}
		xs[i] = x
		ys[i] = y + 0.02*rng.NormFloat64()
	}
	return xs, ys
}

// trainDigest hashes every bit a training run produces: the final
// weights and the whole TrainResult.
func trainDigest(net *Network, res TrainResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash never fails
	}
	for _, w := range net.Weights {
		put(math.Float64bits(w))
	}
	put(uint64(res.Epochs))
	put(math.Float64bits(res.MSE))
	put(math.Float64bits(res.Alpha))
	put(math.Float64bits(res.Beta))
	put(math.Float64bits(res.EffectiveParams))
	if res.Converged {
		put(1)
	}
	return h.Sum64()
}

// TestTrainBRGolden pins TrainBR's output bit for bit at the
// pipeline's shape. The digests were captured on the commit before the
// LM epoch was reworked (one Gram pass per epoch, double-buffered
// Jacobian, tiled kernels), so any reordering of a floating-point sum
// anywhere under TrainBR fails here. The "rejections" case starts with
// almost no damping and drops it a thousandfold after every accepted
// step, so most epochs overshoot and reject steps first: that is the
// path on which the old Jacobian is swapped back instead of recomputed.
func TestTrainBRGolden(t *testing.T) {
	short := DefaultBROptions()
	short.Epochs = 40
	rejecting := BROptions{Epochs: 25, MuInit: 1e-9, MuInc: 4, MuDec: 1e-3, MuMax: 1e10, MinGrad: 1e-7}
	cases := []struct {
		name   string
		seed   int64
		opts   BROptions
		epochs int
		// rejected is how many damping steps were tried and undone; on
		// the parent each cost two Jacobian passes, now each costs one.
		rejected int
		digest   uint64
	}{
		{"seed1", 1, short, 40, 43, 0x1ef5d3414653573a},
		{"seed2", 2, short, 40, 43, 0xb6408ad1d84f0775},
		{"seed3", 3, short, 40, 43, 0x4b30399a31653aa1},
		{"rejections", 4, rejecting, 25, 136, 0x9abde40fad18ffd6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xs, ys := pipelineShapeSet(tc.seed)
			net, err := NewNetwork(8, []int{14, 4}, rand.New(rand.NewSource(tc.seed*7919)))
			if err != nil {
				t.Fatal(err)
			}
			if net.NumWeights() != 191 {
				t.Fatalf("net has %d weights, want the pipeline's 191", net.NumWeights())
			}
			reg := obs.NewRegistry()
			opts := tc.opts
			opts.Obs = reg
			res, err := TrainBR(net, xs, ys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := trainDigest(net, res); res.Epochs != tc.epochs || got != tc.digest {
				t.Errorf("epochs %d digest %#x, want epochs %d digest %#x (result %+v)", res.Epochs, got, tc.epochs, tc.digest, res)
			}
			// One pass up front, one per step tried, none to undo a step.
			var jacEvals float64
			for _, sp := range reg.Snapshot().Spans {
				if sp.Name == "nn.epoch" {
					jacEvals = max(jacEvals, sp.End)
				}
			}
			if want := float64(1 + tc.epochs + tc.rejected); jacEvals != want {
				t.Errorf("%v Jacobian passes, want %v (1 + %d accepted + %d rejected steps)", jacEvals, want, tc.epochs, tc.rejected)
			}
		})
	}
}
