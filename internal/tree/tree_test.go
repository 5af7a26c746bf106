package tree

import (
	"math"
	"math/rand"
	"testing"
)

// depth returns the height of the tree under n.
func depth(n *node) int {
	if n.leaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

// leaves returns the leaf count of the tree under n.
func leaves(n *node) int {
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultOptions()); err == nil {
		t.Error("empty set should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Error("ragged rows should error")
	}
	opts := DefaultOptions()
	opts.MaxDepth = -1
	if _, err := Fit([][]float64{{1}}, []float64{1}, opts); err == nil {
		t.Error("negative depth should error")
	}
}

func TestPredictStepFunction(t *testing.T) {
	// A step function is a tree's home turf: one split recovers it.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		xs = append(xs, []float64{x})
		if x < 0.5 {
			ys = append(ys, 10)
		} else {
			ys = append(ys, 20)
		}
	}
	tr, err := Fit(xs, ys, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ x, want float64 }{{0.1, 10}, {0.9, 20}} {
		got, err := tr.Predict([]float64{tt.x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Predict(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if depth(tr.root) < 1 || leaves(tr.root) < 2 {
		t.Errorf("tree did not split: depth %d, leaves %d", depth(tr.root), leaves(tr.root))
	}
}

func TestPredictWidthValidation(t *testing.T) {
	tr, err := Fit([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Predict([]float64{1}); err == nil {
		t.Error("wrong width should error")
	}
}

func TestMaxDepthZeroIsConstant(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxDepth = 0
	tr, err := Fit([][]float64{{0}, {1}, {2}}, []float64{3, 6, 9}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Predict([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("constant tree = %v, want mean 6", got)
	}
	if leaves(tr.root) != 1 {
		t.Errorf("leaves = %d, want 1", leaves(tr.root))
	}
}

func TestLinearLeavesFitLinearFunction(t *testing.T) {
	// y = 3x + 1 is impossible for a constant-leaf tree of bounded
	// depth but trivial for a model tree even with depth 0.
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+1)
	}
	opts := DefaultOptions()
	opts.MaxDepth = 0
	opts.LinearLeaves = true
	tr, err := Fit(xs, ys, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Predict([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-16) > 0.1 {
		t.Errorf("model tree Predict(5) = %v, want ~16", got)
	}
}

// smoothSurface is a non-linear surface like a throughput response.
func smoothSurface(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		a, b := rng.Float64(), rng.Float64()
		xs[i] = []float64{a, b}
		ys[i] = 50000 + 30000*math.Sin(2*a) - 15000*b*b + 8000*a*b
	}
	return xs, ys
}

func mapeOf(t *testing.T, tr *Tree, xs [][]float64, ys []float64) float64 {
	t.Helper()
	var total float64
	for i, x := range xs {
		p, err := tr.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		total += math.Abs((p - ys[i]) / ys[i])
	}
	return 100 * total / float64(len(xs))
}

func TestLinearLeavesBeatConstantLeaves(t *testing.T) {
	// The paper's observation: allowing a linear combination per node
	// improves on the single-variable tree.
	trainX, trainY := smoothSurface(300, 2)
	testX, testY := smoothSurface(150, 3)

	plain, err := Fit(trainX, trainY, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.LinearLeaves = true
	model, err := Fit(trainX, trainY, opts)
	if err != nil {
		t.Fatal(err)
	}
	plainErr := mapeOf(t, plain, testX, testY)
	modelErr := mapeOf(t, model, testX, testY)
	if modelErr >= plainErr {
		t.Errorf("linear leaves (%.2f%%) should beat constant leaves (%.2f%%)", modelErr, plainErr)
	}
}

func TestDeterminism(t *testing.T) {
	xs, ys := smoothSurface(100, 4)
	a, err := Fit(xs, ys, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(xs, ys, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, float64(i%7) / 7}
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatalf("identical fits diverge at %v", x)
		}
	}
}

func TestConstantTargetsNoSplit(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	ys := make([]float64, 10)
	for i := range ys {
		ys[i] = 7
	}
	tr, err := Fit(xs, ys, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if leaves(tr.root) != 1 {
		t.Errorf("constant target grew %d leaves", leaves(tr.root))
	}
	if got, _ := tr.Predict([]float64{100}); got != 7 {
		t.Errorf("Predict = %v, want 7", got)
	}
}

func TestMinLeafRespected(t *testing.T) {
	xs, ys := smoothSurface(100, 5)
	opts := DefaultOptions()
	opts.MinLeaf = 40
	tr, err := Fit(xs, ys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples with 40-minimum leaves allows at most 2 leaves.
	if leaves(tr.root) > 2 {
		t.Errorf("leaves = %d violates MinLeaf", leaves(tr.root))
	}
}
