package nn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rafiki/internal/obs"
)

// parallelTrainingSet builds a small deterministic regression set.
func parallelTrainingSet(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()}
		xs[i] = x
		ys[i] = 3*x[0] - x[1]*x[1] + 0.5*x[2]
	}
	return xs, ys
}

// stripWorkerGauges removes the par.* worker-occupancy gauges: they
// report the configured worker count by design, so they are the one
// intentional difference between a Workers=1 and a Workers=8 run.
func stripWorkerGauges(s obs.Snapshot) obs.Snapshot {
	for name := range s.Gauges {
		if strings.HasPrefix(name, "par.") {
			delete(s.Gauges, name)
		}
	}
	return s
}

// TestFitDeterministicAcrossWorkers is satellite 3's core contract:
// the same seed must produce a byte-identical serialized model and a
// byte-identical observability snapshot whether members train on one
// worker or eight.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	xs, ys := parallelTrainingSet(24)
	run := func(workers int) ([]byte, []byte) {
		reg := obs.NewRegistry()
		cfg := ModelConfig{
			Hidden:        []int{5},
			EnsembleSize:  4,
			PruneFraction: 0.25,
			Trainer:       TrainerBR,
			BR:            BROptions{Epochs: 12, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
			Seed:          99,
			Workers:       workers,
			Obs:           reg,
		}
		m, err := Fit(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := stripWorkerGauges(reg.Snapshot()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob, snap
	}
	refModel, refSnap := run(1)
	for _, workers := range []int{2, 8} {
		gotModel, gotSnap := run(workers)
		if !bytes.Equal(refModel, gotModel) {
			t.Errorf("workers=%d: serialized model differs from serial run", workers)
		}
		if !bytes.Equal(refSnap, gotSnap) {
			t.Errorf("workers=%d: obs snapshot differs from serial run:\n%s\nvs\n%s", workers, gotSnap, refSnap)
		}
	}
}

// TestPredictBatchDeterministicAcrossWorkers pins the batch-prediction
// side: chunked parallel prediction must be bit-equal to serial, and
// bit-equal to row-by-row Predict.
func TestPredictBatchDeterministicAcrossWorkers(t *testing.T) {
	xs, ys := parallelTrainingSet(24)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{5},
		EnsembleSize: 3,
		Trainer:      TrainerBR,
		BR:           BROptions{Epochs: 8, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := parallelTrainingSet(57)
	m.Workers = 1
	ref, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		p, err := m.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if p != ref[i] {
			t.Fatalf("Predict(%d) = %v, batch = %v", i, p, ref[i])
		}
	}
	for _, workers := range []int{2, 8} {
		m.Workers = workers
		got, err := m.PredictBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: batch[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestPredictBatchIntoShapeMismatch(t *testing.T) {
	xs, ys := parallelTrainingSet(12)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{3},
		EnsembleSize: 1,
		Trainer:      TrainerBR,
		BR:           BROptions{Epochs: 2, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PredictBatchInto(make([]float64, 1), xs); err == nil {
		t.Error("length mismatch should error")
	}
	if err := m.PredictBatchInto(nil, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

// TestTrainBRAllocGuard pins the scratch-reuse contract: a TrainBR run
// allocates a fixed handful of buffers — the trainer's own up front,
// plus the two Jacobians' transposition scratch the first time each has
// its Gram matrix taken — and nothing per epoch or per sample, so a
// 30-epoch run allocates exactly what a 6-epoch run does. (Before the
// scratch was hoisted each epoch allocated the jacobian products, the
// damped Hessian, the Cholesky factor and per-sample activations.)
func TestTrainBRAllocGuard(t *testing.T) {
	xs, ys := parallelTrainingSet(32)
	rng := rand.New(rand.NewSource(1))
	proto, err := NewNetwork(3, []int{6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	allocsFor := func(epochs int) float64 {
		opts := BROptions{Epochs: epochs, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 0}
		return testing.AllocsPerRun(3, func() {
			net := proto.Clone()
			if res, err := TrainBR(net, xs, ys, opts); err != nil || res.Epochs != epochs {
				t.Fatalf("ran %d of %d epochs, err %v", res.Epochs, epochs, err)
			}
		})
	}
	short, long := allocsFor(6), allocsFor(30)
	if long != short {
		t.Errorf("TrainBR allocates %v over 30 epochs but %v over 6: the epoch loop allocates", long, short)
	}
	if long > 40 {
		t.Errorf("TrainBR allocates %v per run, want the ~30 fixed buffers", long)
	}
}

// TestGradientWSMatchesGradient checks the workspace backprop path is
// bit-equal to the allocating one.
func TestGradientWSMatchesGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := NewNetwork(4, []int{7, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	g1 := make([]float64, net.NumWeights())
	g2 := make([]float64, net.NumWeights())
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		out1, err := net.Gradient(x, g1)
		if err != nil {
			t.Fatal(err)
		}
		out2, err := net.GradientWS(&ws, x, g2)
		if err != nil {
			t.Fatal(err)
		}
		if out1 != out2 {
			t.Fatalf("trial %d: outputs differ: %v vs %v", trial, out1, out2)
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("trial %d: grad[%d] differs: %v vs %v", trial, i, g1[i], g2[i])
			}
		}
		fw, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if fw != out1 {
			t.Fatalf("trial %d: Forward %v, Gradient output %v", trial, fw, out1)
		}
	}
	if _, err := net.GradientWS(&ws, []float64{1}, g2); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := net.GradientWS(&ws, []float64{1, 2, 3, 4}, make([]float64, 2)); err == nil {
		t.Error("bad grad buffer should error")
	}
}

func BenchmarkTrainBR(b *testing.B) {
	xs, ys := parallelTrainingSet(32)
	rng := rand.New(rand.NewSource(1))
	proto, err := NewNetwork(3, []int{6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	opts := BROptions{Epochs: 20, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := proto.Clone()
		if _, err := TrainBR(net, xs, ys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBREpoch times one LM/Bayesian-regularization epoch of
// one ensemble member at the pipeline's shape (220 samples, 163
// weights): gradient test, damped solves until a step is accepted, the
// Gram pass and the evidence update. Training restarts from the initial
// weights every 40 epochs, with the timer stopped, so every op is an
// early-training epoch like the ones the pipeline's 60-epoch members
// run, and the reported allocations are the epoch loop's own (zero).
func BenchmarkTrainBREpoch(b *testing.B) {
	xs, ys := pipelineShapeSet(1)
	proto, err := NewNetwork(6, []int{14, 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultBROptions()
	var t *lmTrainer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%40 == 0 {
			b.StopTimer()
			if t, err = newLMTrainer(proto.Clone(), xs, ys, opts); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := t.gradientNorm(); err != nil {
			b.Fatal(err)
		}
		if improved, err := t.step(); err != nil || !improved {
			b.Fatalf("epoch %d: improved %v, err %v", i%40, improved, err)
		}
	}
}

// BenchmarkPredictBatch times PredictBatchInto on the surrogate's own
// shape — [6,14,4,1], 20 members trained and pruned to 14 — at the
// three batch sizes inference runs at: one row (a Predict), a GA brood
// of 48 candidates sharing the workload vector in front of their genes,
// and the 1024 dataset rows of rafikibench's nn.predict_batch_row_ns
// probe.
func BenchmarkPredictBatch(b *testing.B) {
	xs, ys := pipelineShapeSet(1)
	cfg := DefaultModelConfig()
	cfg.BR.Epochs = 6
	m, err := Fit(xs, ys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	brood := make([][]float64, 48)
	for i := range brood {
		brood[i] = append([]float64(nil), xs[0]...)
		for j := 3; j < len(brood[i]); j++ {
			brood[i][j] = 2*rng.Float64() - 1
		}
	}
	probe := make([][]float64, 1024)
	for i := range probe {
		probe[i] = xs[i%len(xs)]
	}
	for _, rows := range [][][]float64{brood[:1], brood, probe} {
		b.Run(fmt.Sprintf("rows=%d", len(rows)), func(b *testing.B) {
			out := make([]float64, len(rows))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.PredictBatchInto(out, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
