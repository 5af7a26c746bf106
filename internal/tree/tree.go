// Package tree implements CART-style regression trees: axis-aligned
// splits with one decision variable per node, plus a model-tree variant
// whose leaves hold ridge-regression linear models. Section 3.7.2 of
// the paper reports trying exactly these as interpretable alternatives
// to the DNN surrogate — the plain tree was "woefully inadequate", the
// linear-combination variant better but still behind — and the ablation
// experiment in internal/bench reproduces that comparison.
package tree

import (
	"fmt"
	"sort"

	"rafiki/internal/linalg"
)

// Options tunes tree induction.
type Options struct {
	// MaxDepth caps the tree height (root is depth 0).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// LinearLeaves fits a ridge linear model per leaf instead of a
	// constant — the paper's "linear combination of the parameters"
	// variant.
	LinearLeaves bool
	// Ridge is the L2 regularization of leaf models.
	Ridge float64
}

// DefaultOptions returns a reasonable tree configuration.
func DefaultOptions() Options {
	return Options{MaxDepth: 6, MinLeaf: 5, Ridge: 1e-3}
}

// Tree is a fitted regression tree.
type Tree struct {
	root *node
	dim  int
	// yMin and yMax bound predictions: a regression tree must not
	// extrapolate beyond the target range it saw, and leaf linear
	// models otherwise would.
	yMin, yMax float64
}

type node struct {
	// Internal nodes: split on feature < threshold.
	feature   int
	threshold float64
	left      *node
	right     *node
	// Leaves: constant prediction, or linear coefficients (bias last).
	leaf   bool
	mean   float64
	coeffs []float64
}

// Fit induces a regression tree on (xs, ys).
func Fit(xs [][]float64, ys []float64, opts Options) (*Tree, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("tree: bad training set: %d inputs, %d targets", len(xs), len(ys))
	}
	if opts.MaxDepth < 0 {
		return nil, fmt.Errorf("tree: negative max depth %d", opts.MaxDepth)
	}
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("tree: ragged row %d: %d features, want %d", i, len(x), dim)
		}
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{dim: dim, yMin: ys[0], yMax: ys[0]}
	for _, y := range ys {
		if y < t.yMin {
			t.yMin = y
		}
		if y > t.yMax {
			t.yMax = y
		}
	}
	t.root = build(xs, ys, idx, 0, opts)
	return t, nil
}

// Predict evaluates the tree at x.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != t.dim {
		return 0, fmt.Errorf("tree: input width %d, want %d", len(x), t.dim)
	}
	n := t.root
	for !n.leaf {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n.coeffs == nil {
		return n.mean, nil
	}
	out := n.coeffs[len(n.coeffs)-1] // bias
	for j, c := range n.coeffs[:len(n.coeffs)-1] {
		out += c * x[j]
	}
	if out < t.yMin {
		out = t.yMin
	}
	if out > t.yMax {
		out = t.yMax
	}
	return out, nil
}

func build(xs [][]float64, ys []float64, idx []int, d int, opts Options) *node {
	if d >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf {
		return makeLeaf(xs, ys, idx, opts)
	}
	feature, threshold, ok := bestSplit(xs, ys, idx, opts.MinLeaf)
	if !ok {
		return makeLeaf(xs, ys, idx, opts)
	}
	var left, right []int
	for _, i := range idx {
		if xs[i][feature] < threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		return makeLeaf(xs, ys, idx, opts)
	}
	return &node{
		feature:   feature,
		threshold: threshold,
		left:      build(xs, ys, left, d+1, opts),
		right:     build(xs, ys, right, d+1, opts),
	}
}

// bestSplit scans every feature for the threshold minimizing the summed
// squared error of the two children, using the incremental
// sum/sum-of-squares identity so each feature costs O(n log n).
func bestSplit(xs [][]float64, ys []float64, idx []int, minLeaf int) (int, float64, bool) {
	n := len(idx)
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += ys[i]
		totalSq += ys[i] * ys[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	bestGain := 1e-12
	bestFeature, bestThreshold := -1, 0.0
	order := make([]int, n)
	dim := len(xs[idx[0]])
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return xs[order[a]][f] < xs[order[b]][f] })
		var leftSum, leftSq float64
		for pos := 0; pos < n-1; pos++ {
			y := ys[order[pos]]
			leftSum += y
			leftSq += y * y
			if pos+1 < minLeaf || n-pos-1 < minLeaf {
				continue
			}
			cur, next := xs[order[pos]][f], xs[order[pos+1]][f]
			if cur == next {
				continue
			}
			nl := float64(pos + 1)
			nr := float64(n - pos - 1)
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			if gain := parentSSE - sse; gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (cur + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}

func makeLeaf(xs [][]float64, ys []float64, idx []int, opts Options) *node {
	var sum float64
	for _, i := range idx {
		sum += ys[i]
	}
	mean := sum / float64(len(idx))
	leaf := &node{leaf: true, mean: mean}
	if !opts.LinearLeaves {
		return leaf
	}
	coeffs, err := ridgeFit(xs, ys, idx, opts.Ridge)
	if err == nil {
		leaf.coeffs = coeffs
	}
	return leaf
}

// ridgeFit solves (XᵀX + λI) w = Xᵀy over the leaf's samples, with a
// trailing bias column.
func ridgeFit(xs [][]float64, ys []float64, idx []int, ridge float64) ([]float64, error) {
	dim := len(xs[idx[0]]) + 1
	x := linalg.New(len(idx), dim)
	y := make([]float64, len(idx))
	for r, i := range idx {
		copy(x.Data[r*dim:], xs[i])
		x.Data[r*dim+dim-1] = 1
		y[r] = ys[i]
	}
	gram := x.AtA()
	if ridge <= 0 {
		ridge = 1e-9
	}
	if err := gram.AddDiagonal(ridge * float64(len(idx))); err != nil {
		return nil, err
	}
	rhs, err := x.AtVec(y)
	if err != nil {
		return nil, err
	}
	return gram.SolveSPD(rhs)
}
