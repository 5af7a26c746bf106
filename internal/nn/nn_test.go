package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewNetwork(6, []int{14, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's architecture: 6 inputs, [14, 4] hidden, 1 output.
	want := 14*6 + 14 + 4*14 + 4 + 1*4 + 1
	if got := net.NumWeights(); got != want {
		t.Errorf("NumWeights = %d, want %d", got, want)
	}
	if len(net.Sizes) != 4 || net.Sizes[3] != 1 {
		t.Errorf("Sizes = %v", net.Sizes)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNetwork(0, []int{3}, rng); err == nil {
		t.Error("zero inputs should error")
	}
	if _, err := NewNetwork(2, []int{0}, rng); err == nil {
		t.Error("zero hidden width should error")
	}
}

func TestForwardInputWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, _ := NewNetwork(3, []int{4}, rng)
	if _, err := net.Forward([]float64{1, 2}); err == nil {
		t.Error("wrong input width should error")
	}
	if _, err := net.Forward([]float64{1, 2, 3}); err != nil {
		t.Errorf("valid forward failed: %v", err)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, _ := NewNetwork(4, []int{5, 3}, rng)
	x := []float64{0.3, -0.2, 0.9, -0.5}
	grad := make([]float64, net.NumWeights())
	out, err := net.Gradient(x, grad)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out-fw) > 1e-12 {
		t.Errorf("Gradient output %v != Forward %v", out, fw)
	}

	const h = 1e-6
	for i := 0; i < net.NumWeights(); i++ {
		orig := net.Weights[i]
		net.Weights[i] = orig + h
		up, _ := net.Forward(x)
		net.Weights[i] = orig - h
		down, _ := net.Forward(x)
		net.Weights[i] = orig
		fd := (up - down) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("weight %d: analytic %v vs finite diff %v", i, grad[i], fd)
		}
	}
}

func TestGradientBufferValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, _ := NewNetwork(2, []int{3}, rng)
	if _, err := net.Gradient([]float64{1, 2}, make([]float64, 3)); err == nil {
		t.Error("short gradient buffer should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, _ := NewNetwork(2, []int{3}, rng)
	c := net.Clone()
	c.Weights[0] += 100
	if net.Weights[0] == c.Weights[0] {
		t.Error("Clone shares weights")
	}
}

func TestNormalizer(t *testing.T) {
	rows := [][]float64{{0, 10, 5}, {10, 20, 5}}
	n, err := FitNormalizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Apply([]float64{5, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != -1 {
		t.Errorf("Apply = %v", out)
	}
	// Constant dimension maps to 0.
	if out[2] != 0 {
		t.Errorf("constant dim = %v, want 0", out[2])
	}
	if _, err := n.Apply([]float64{1}); err == nil {
		t.Error("wrong width should error")
	}
	if _, err := FitNormalizer(nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestScalarNormalizerRoundTrip(t *testing.T) {
	s, err := FitScalar([]float64{50, 150, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{50, 100, 150, 75} {
		if got := s.Invert(s.Apply(y)); math.Abs(got-y) > 1e-9 {
			t.Errorf("round trip %v -> %v", y, got)
		}
	}
	flat, _ := FitScalar([]float64{7, 7})
	if flat.Apply(7) != 0 || flat.Invert(0) != 7 {
		t.Error("degenerate scalar normalizer broken")
	}
	if _, err := FitScalar(nil); err == nil {
		t.Error("empty fit should error")
	}
}

// synthSurface generates samples of a smooth non-linear function of two
// variables, shaped like a throughput response surface.
func synthSurface(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		xs[i] = []float64{a, b}
		ys[i] = 50000 + 30000*math.Sin(2*a) - 15000*b*b + 8000*a*b
	}
	return xs, ys
}

func TestTrainBRFitsSurface(t *testing.T) {
	xs, ys := synthSurface(120, 6)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{8},
		EnsembleSize: 3,
		Trainer:      TrainerBR,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := synthSurface(60, 99)
	preds, err := m.PredictBatch(testX)
	if err != nil {
		t.Fatal(err)
	}
	var mape float64
	for i := range preds {
		mape += math.Abs((preds[i] - testY[i]) / testY[i])
	}
	mape = 100 * mape / float64(len(preds))
	if mape > 8 {
		t.Errorf("BR surrogate MAPE %.2f%% too high on held-out data", mape)
	}
}

func TestTrainBRBeatsGD(t *testing.T) {
	xs, ys := synthSurface(100, 8)
	testX, testY := synthSurface(50, 123)

	mapeOf := func(trainer Trainer) float64 {
		m, err := Fit(xs, ys, ModelConfig{
			Hidden:       []int{8},
			EnsembleSize: 3,
			Trainer:      trainer,
			Seed:         11,
		})
		if err != nil {
			t.Fatal(err)
		}
		preds, err := m.PredictBatch(testX)
		if err != nil {
			t.Fatal(err)
		}
		var mape float64
		for i := range preds {
			mape += math.Abs((preds[i] - testY[i]) / testY[i])
		}
		return 100 * mape / float64(len(preds))
	}
	br := mapeOf(TrainerBR)
	gd := mapeOf(TrainerGD)
	if br > gd*1.5 {
		t.Errorf("BR (%.2f%%) should not be far worse than GD (%.2f%%)", br, gd)
	}
}

func TestTrainBRReportsRegularization(t *testing.T) {
	xs, ys := synthSurface(80, 9)
	norm, _ := FitNormalizer(xs)
	outNorm, _ := FitScalar(ys)
	nx := make([][]float64, len(xs))
	ny := make([]float64, len(ys))
	for i := range xs {
		nx[i], _ = norm.Apply(xs[i])
		ny[i] = outNorm.Apply(ys[i])
	}
	rng := rand.New(rand.NewSource(10))
	net, _ := NewNetwork(2, []int{6}, rng)
	res, err := TrainBR(net, nx, ny, DefaultBROptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Error("no epochs ran")
	}
	if res.Alpha < 0 || res.Beta <= 0 {
		t.Errorf("hyperparameters alpha=%v beta=%v", res.Alpha, res.Beta)
	}
	if res.EffectiveParams <= 0 || res.EffectiveParams > float64(net.NumWeights()) {
		t.Errorf("effective params %v outside (0, %d]", res.EffectiveParams, net.NumWeights())
	}
	if res.MSE <= 0 || res.MSE > 0.2 {
		t.Errorf("training MSE %v implausible", res.MSE)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net, _ := NewNetwork(2, []int{3}, rng)
	if _, err := TrainBR(net, nil, nil, DefaultBROptions()); err == nil {
		t.Error("empty set should error")
	}
	if _, err := TrainBR(net, [][]float64{{1, 2}}, []float64{1, 2}, DefaultBROptions()); err == nil {
		t.Error("length mismatch should error")
	}
	opts := DefaultBROptions()
	opts.Epochs = 0
	if _, err := TrainBR(net, [][]float64{{1, 2}}, []float64{1}, opts); err == nil {
		t.Error("zero epochs should error")
	}
	if _, err := TrainGD(net, nil, nil, 0); err == nil {
		t.Error("GD empty set should error")
	}
}

// TestTrainersRejectNonFiniteData: a NaN target used to come back from
// TrainBR as {Epochs:1, MSE:NaN, Converged:true} with a nil error, and
// a +Inf target from Fit as a model predicting +Inf. Every trainer now
// refuses such a set and names the first offending sample.
func TestTrainersRejectNonFiniteData(t *testing.T) {
	cases := []struct {
		name string
		// inX says whether the poison goes into xs[2][1] or ys[2].
		inX    bool
		poison float64
		want   string
	}{
		{"NaN target", false, math.NaN(), "ys[2] = NaN"},
		{"+Inf target", false, math.Inf(1), "ys[2] = +Inf"},
		{"-Inf target", false, math.Inf(-1), "ys[2] = -Inf"},
		{"NaN input", true, math.NaN(), "xs[2][1] = NaN"},
		{"+Inf input", true, math.Inf(1), "xs[2][1] = +Inf"},
		{"-Inf input", true, math.Inf(-1), "xs[2][1] = -Inf"},
	}
	trainers := []struct {
		name string
		run  func(xs [][]float64, ys []float64) error
	}{
		{"TrainBR", func(xs [][]float64, ys []float64) error {
			net, _ := NewNetwork(2, []int{3}, rand.New(rand.NewSource(12)))
			_, err := TrainBR(net, xs, ys, DefaultBROptions())
			return err
		}},
		{"TrainGD", func(xs [][]float64, ys []float64) error {
			net, _ := NewNetwork(2, []int{3}, rand.New(rand.NewSource(12)))
			_, err := TrainGD(net, xs, ys, 0)
			return err
		}},
		{"Fit", func(xs [][]float64, ys []float64) error {
			_, err := Fit(xs, ys, ModelConfig{Hidden: []int{3}, EnsembleSize: 2, Seed: 12})
			return err
		}},
	}
	for _, tc := range cases {
		for _, tr := range trainers {
			xs, ys := synthSurface(10, 13)
			for i := range ys {
				ys[i] /= 50000 // the trainers proper take normalized data
			}
			// A second poisoned sample later in the set: the error must
			// name the first.
			if tc.inX {
				xs[2][1], xs[7][0] = tc.poison, tc.poison
			} else {
				ys[2], ys[7] = tc.poison, tc.poison
			}
			err := tr.run(xs, ys)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want one naming %q", tr.name, tc.name, err, tc.want)
			}
		}
	}
}

func TestFitValidation(t *testing.T) {
	xs, ys := synthSurface(10, 13)
	if _, err := Fit(nil, nil, DefaultModelConfig()); err == nil {
		t.Error("empty data should error")
	}
	cfg := DefaultModelConfig()
	cfg.EnsembleSize = 0
	if _, err := Fit(xs, ys, cfg); err == nil {
		t.Error("zero ensemble should error")
	}
	cfg = DefaultModelConfig()
	cfg.PruneFraction = 1
	if _, err := Fit(xs, ys, cfg); err == nil {
		t.Error("prune=1 should error")
	}
	cfg = DefaultModelConfig()
	cfg.Trainer = Trainer(42)
	cfg.EnsembleSize = 1
	if _, err := Fit(xs, ys, cfg); err == nil {
		t.Error("unknown trainer should error")
	}
}

func TestEnsemblePruning(t *testing.T) {
	xs, ys := synthSurface(60, 14)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:        []int{6},
		EnsembleSize:  10,
		PruneFraction: 0.3,
		Trainer:       TrainerBR,
		BR:            BROptions{Epochs: 30, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:          15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Size(); got != 7 {
		t.Errorf("surviving members = %d, want 7 (30%% of 10 pruned)", got)
	}
	// Survivors are the best by training error: results must be sorted.
	rs := m.Results()
	for i := 1; i < len(rs); i++ {
		if rs[i].MSE < rs[i-1].MSE {
			t.Errorf("results not sorted by MSE: %v then %v", rs[i-1].MSE, rs[i].MSE)
		}
	}
}

func TestModelDeterminism(t *testing.T) {
	xs, ys := synthSurface(50, 16)
	cfg := ModelConfig{Hidden: []int{5}, EnsembleSize: 2, Trainer: TrainerBR, Seed: 17,
		BR: BROptions{Epochs: 20, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7}}
	m1, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := m1.Predict(xs[0])
	p2, _ := m2.Predict(xs[0])
	if p1 != p2 {
		t.Errorf("same seed predictions differ: %v vs %v", p1, p2)
	}
}

func TestPredictWithStd(t *testing.T) {
	xs, ys := synthSurface(80, 21)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{6},
		EnsembleSize: 5,
		Trainer:      TrainerBR,
		BR:           BROptions{Epochs: 25, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:         22,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean, std, err := m.PredictWithStd(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	point, err := m.Predict(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-point) > 1e-9 {
		t.Errorf("PredictWithStd mean %v != Predict %v", mean, point)
	}
	if std < 0 {
		t.Errorf("negative std %v", std)
	}
	// Uncertainty must explode outside the training domain.
	_, farStd, err := m.PredictWithStd([]float64{25, -30})
	if err != nil {
		t.Fatal(err)
	}
	if farStd <= std {
		t.Errorf("extrapolation std %v not larger than in-domain %v", farStd, std)
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	xs, ys := synthSurface(60, 30)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{6},
		EnsembleSize: 3,
		Trainer:      TrainerBR,
		BR:           BROptions{Epochs: 20, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Size() != m.Size() {
		t.Fatalf("ensemble size %d, want %d", back.Size(), m.Size())
	}
	for i := 0; i < 20; i++ {
		x := xs[i%len(xs)]
		a, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("prediction drifted after round trip: %v vs %v", a, b)
		}
	}
}

func TestModelUnmarshalValidation(t *testing.T) {
	var m Model
	cases := []string{
		`{"nets":[]}`,
		`{"inputMin":[0],"inputMax":[1],"nets":[{"sizes":[2],"weights":[]}]}`,
		`{"inputMin":[0],"inputMax":[1],"nets":[{"sizes":[1,2],"weights":[1]}]}`,
		`{"inputMin":[0],"inputMax":[1],"nets":[{"sizes":[1,3,1],"weights":[1,2,3]}]}`,
		`{"inputMin":[0,0],"inputMax":[1,1],"nets":[{"sizes":[1,1],"weights":[1,1]}]}`,
		`not json`,
	}
	for i, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("case %d should fail to decode", i)
		}
	}
}

func TestModelValidateRejectsPoison(t *testing.T) {
	xs, ys := synthSurface(40, 20)
	m, err := Fit(xs, ys, ModelConfig{
		Hidden:       []int{4},
		EnsembleSize: 2,
		Trainer:      TrainerBR,
		BR:           BROptions{Epochs: 10, MuInit: 0.005, MuInc: 10, MuDec: 0.1, MuMax: 1e10, MinGrad: 1e-7},
		Seed:         33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("healthy model failed validation: %v", err)
	}
	if got, want := m.InputWidth(), len(xs[0]); got != want {
		t.Errorf("input width = %d, want %d", got, want)
	}

	// In-memory corruption: a NaN weight must be caught.
	m.nets[0].Weights[0] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN weight should fail validation")
	}
	m.nets[0].Weights[0] = math.Inf(1)
	if err := m.Validate(); err == nil {
		t.Error("Inf weight should fail validation")
	}
	m.nets[0].Weights[0] = 0
	if err := m.Validate(); err != nil {
		t.Fatalf("repaired model failed validation: %v", err)
	}
	m.inNorm.Min[0] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN normalizer bound should fail validation")
	}

	// An inverted normalizer range smuggled through JSON is rejected at
	// decode time.
	var back Model
	inverted := `{"inputMin":[2],"inputMax":[1],"outputMin":0,"outputMax":1,"nets":[{"sizes":[1,1],"weights":[1,1]}]}`
	if err := json.Unmarshal([]byte(inverted), &back); err == nil {
		t.Error("inverted normalizer range should fail to decode")
	}
}
