// Package nn implements the surrogate performance model of Section 3.6:
// small feed-forward neural networks (the paper's [6, 14, 4, 1]
// architecture) trained with Levenberg-Marquardt plus MacKay Bayesian
// regularization (MATLAB's trainbr), ensembled with worst-30% pruning.
// A plain gradient-descent trainer is included as an ablation baseline.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is a fully-connected feed-forward network with tanh hidden
// units and a linear output. Weights are stored flat, layer by layer,
// each layer as a (out x in) weight block followed by out biases.
type Network struct {
	// Sizes lists layer widths, inputs first, output last.
	Sizes []int
	// Weights is the flat parameter vector.
	Weights []float64

	// offsets[i] is where layer i's block starts in Weights.
	offsets []int
}

// NewNetwork builds a network with the given input width, hidden layer
// widths, and a single linear output, with weights initialized by
// Nguyen-Widrow-style scaled uniform draws from rng.
func NewNetwork(inputs int, hidden []int, rng *rand.Rand) (*Network, error) {
	if inputs <= 0 {
		return nil, fmt.Errorf("nn: inputs must be positive, got %d", inputs)
	}
	sizes := make([]int, 0, len(hidden)+2)
	sizes = append(sizes, inputs)
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: hidden width must be positive, got %d", h)
		}
		sizes = append(sizes, h)
	}
	sizes = append(sizes, 1)

	n := &Network{Sizes: sizes}
	n.offsets = make([]int, len(sizes)-1)
	total := 0
	for l := 0; l < len(sizes)-1; l++ {
		n.offsets[l] = total
		total += sizes[l+1]*sizes[l] + sizes[l+1]
	}
	n.Weights = make([]float64, total)
	for l := 0; l < len(sizes)-1; l++ {
		scale := 0.7 * math.Pow(float64(sizes[l+1]), 1/float64(sizes[l]))
		w, b := n.layer(l)
		for i := range w {
			w[i] = scale * (2*rng.Float64() - 1) / math.Sqrt(float64(sizes[l]))
		}
		for i := range b {
			b[i] = 0.1 * (2*rng.Float64() - 1)
		}
	}
	return n, nil
}

// NumWeights returns the parameter count.
func (n *Network) NumWeights() int { return len(n.Weights) }

// layer returns the weight and bias slices of layer l, viewing into the
// flat parameter vector.
func (n *Network) layer(l int) (w, b []float64) {
	in, out := n.Sizes[l], n.Sizes[l+1]
	start := n.offsets[l]
	w = n.Weights[start : start+out*in]
	b = n.Weights[start+out*in : start+out*in+out]
	return w, b
}

// Clone returns an independent copy.
func (n *Network) Clone() *Network {
	c := &Network{
		Sizes:   append([]int(nil), n.Sizes...),
		Weights: append([]float64(nil), n.Weights...),
		offsets: append([]int(nil), n.offsets...),
	}
	return c
}

// Forward runs the network on a throwaway workspace, returning the output.
func (n *Network) Forward(x []float64) (float64, error) {
	var ws Workspace
	acts, err := n.forwardWS(&ws, x)
	if err != nil {
		return 0, err
	}
	return acts[len(acts)-1][0], nil
}

// Gradient computes d(output)/d(weights) at x via backpropagation,
// writing into grad (length NumWeights). It returns the output value.
// It allocates a throwaway workspace; hot loops should hold a
// Workspace and call GradientWS instead.
func (n *Network) Gradient(x []float64, grad []float64) (float64, error) {
	var ws Workspace
	return n.GradientWS(&ws, x, grad)
}

// Workspace holds the per-layer forward and backward scratch of one
// gradient evaluation. It adapts to whatever architecture it is used
// with (re-allocating only on a shape change), so one zero-value
// Workspace serves a member across an entire training run. Not safe
// for concurrent use; give each goroutine its own.
type Workspace struct {
	// sizes is the architecture the buffers currently fit.
	sizes []int
	// acts[l] holds layer l's activations; acts[0] aliases the input
	// row of the current evaluation.
	acts [][]float64
	// d1, d2 are the two backpropagation delta buffers, sized to the
	// widest layer.
	d1, d2 []float64
}

// ensure sizes the workspace for net's architecture.
func (ws *Workspace) ensure(n *Network) {
	if len(ws.sizes) == len(n.Sizes) {
		same := true
		for i, s := range n.Sizes {
			if ws.sizes[i] != s {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	ws.sizes = append(ws.sizes[:0], n.Sizes...)
	ws.acts = make([][]float64, len(n.Sizes))
	widest := 0
	for l, s := range n.Sizes {
		if l > 0 {
			ws.acts[l] = make([]float64, s)
		}
		if s > widest {
			widest = s
		}
	}
	ws.d1 = make([]float64, widest)
	ws.d2 = make([]float64, widest)
}

// forwardWS runs the forward pass into the workspace's activation
// buffers and returns them. acts[0] aliases x.
//
//rafiki:hot
func (n *Network) forwardWS(ws *Workspace, x []float64) ([][]float64, error) {
	if len(x) != n.Sizes[0] {
		return nil, fmt.Errorf("nn: input width %d, want %d", len(x), n.Sizes[0]) //lint:allow hotalloc a width mismatch is a caller bug, never the epoch loop's path
	}
	ws.ensure(n) //lint:allow hotalloc re-sizes only when the architecture changes
	acts := ws.acts
	acts[0] = x
	for l := 0; l < len(n.Sizes)-1; l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		w, b := n.layer(l)
		next := acts[l+1]
		prev := acts[l]
		for o := 0; o < out; o++ {
			sum := b[o]
			row := w[o*in : (o+1)*in]
			for i, v := range prev {
				sum += row[i] * v
			}
			if l < len(n.Sizes)-2 {
				sum = math.Tanh(sum)
			}
			next[o] = sum
		}
	}
	return acts, nil
}

// GradientWS is Gradient with caller-owned scratch — the jacobian
// loop's allocation-free form. Results are bit-equal to Gradient.
//
//rafiki:hot
func (n *Network) GradientWS(ws *Workspace, x []float64, grad []float64) (float64, error) {
	if len(grad) != n.NumWeights() {
		return 0, fmt.Errorf("nn: gradient buffer %d, want %d", len(grad), n.NumWeights()) //lint:allow hotalloc a width mismatch is a caller bug, never the epoch loop's path
	}
	acts, err := n.forwardWS(ws, x)
	if err != nil {
		return 0, err
	}
	layers := len(n.Sizes) - 1

	// delta starts as d(out)/d(preact of output) = 1 (linear output).
	delta := ws.d1[:1]
	delta[0] = 1
	spare := ws.d2
	for l := layers - 1; l >= 0; l-- {
		in, out := n.Sizes[l], n.Sizes[l+1]
		w, _ := n.layer(l)
		start := n.offsets[l]
		prev := acts[l]
		for o := 0; o < out; o++ {
			d := delta[o]
			gRow := grad[start+o*in : start+(o+1)*in]
			for i, v := range prev {
				gRow[i] = d * v
			}
			grad[start+out*in+o] = d
		}
		if l == 0 {
			break
		}
		// Propagate delta to the previous (tanh) layer.
		nextDelta := spare[:in]
		for i := 0; i < in; i++ {
			var sum float64
			for o := 0; o < out; o++ {
				sum += delta[o] * w[o*in+i]
			}
			a := acts[l][i]
			nextDelta[i] = sum * (1 - a*a)
		}
		spare = delta[:cap(delta)]
		delta = nextDelta
	}
	return acts[len(acts)-1][0], nil
}
