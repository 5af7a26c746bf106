package forecast

import (
	"math"
	"testing"

	"rafiki/internal/workload"
)

// lastValue predicts "same as last window", the implicit model of a
// reactive controller: the baseline the Markov model is held against.
type lastValue struct {
	last float64
	seen bool
}

func (p *lastValue) Observe(rr float64) { p.last, p.seen = rr, true }

func (p *lastValue) Predict() float64 {
	if !p.seen {
		return 0.5
	}
	return p.last
}

// mse replays series through f and returns the mean squared one-step
// prediction error.
func mse(f Forecaster, series []float64) float64 {
	var sse float64
	for i, rr := range series {
		if i > 0 {
			d := f.Predict() - rr
			sse += d * d
		}
		f.Observe(rr)
	}
	return sse / float64(len(series)-1)
}

func TestMarkovValidation(t *testing.T) {
	if _, err := NewMarkov(1); err == nil {
		t.Error("1 bin should error")
	}
}

func TestMarkovLearnsAlternation(t *testing.T) {
	// A strictly alternating series 0.9, 0.1, 0.9, ... — the Markov
	// model must learn to predict the flip; persistence cannot.
	m, err := NewMarkov(5)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, 200)
	for i := range series {
		if i%2 == 0 {
			series[i] = 0.9
		} else {
			series[i] = 0.1
		}
	}
	mseM, mseP := mse(m, series), mse(&lastValue{}, series)
	if mseM >= mseP/2 {
		t.Errorf("Markov MSE %v should crush persistence %v on alternation", mseM, mseP)
	}
}

func TestMarkovBinEdges(t *testing.T) {
	m, err := NewMarkov(4)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range observations clamp instead of panicking.
	m.Observe(-0.5)
	m.Observe(1.5)
	got := m.Predict()
	if got < 0 || got > 1 {
		t.Errorf("Predict = %v out of [0,1]", got)
	}
}

func TestMarkovOnSynthesizedTrace(t *testing.T) {
	// On the MG-RAST-like regime-switching trace, the learned Markov
	// model should beat last-value persistence in one-step MSE.
	trace, err := workload.SynthesizeTrace(workload.DefaultTraceSpec())
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, len(trace))
	for i, w := range trace {
		series[i] = w.ReadRatio
	}
	m, err := NewMarkov(5)
	if err != nil {
		t.Fatal(err)
	}
	mseMarkov, msePersist := mse(m, series), mse(&lastValue{}, series)
	t.Logf("MSE: markov=%.4f persistence=%.4f", mseMarkov, msePersist)
	if mseMarkov >= msePersist {
		t.Errorf("Markov (%.4f) should beat persistence (%.4f)", mseMarkov, msePersist)
	}
	if math.IsNaN(mseMarkov) || mseMarkov <= 0 {
		t.Errorf("implausible MSE %v", mseMarkov)
	}
}
