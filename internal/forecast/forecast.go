// Package forecast implements workload prediction, the future-work item
// of Section 6 ("we are also developing a prediction model for the
// workloads"): given the observed read-ratio window series, predict the
// next window so the controller can re-tune proactively instead of
// reacting one window late.
//
// The predictor is a discretized Markov chain that learns the
// regime-switching structure of MG-RAST-like traces online.
package forecast

import "fmt"

// Forecaster consumes a read-ratio series one observation at a time and
// predicts the next value.
type Forecaster interface {
	// Observe feeds one window's read ratio.
	Observe(rr float64)
	// Predict returns the expected next read ratio. Before any
	// observation it returns a neutral 0.5.
	Predict() float64
}

// Markov discretizes the read ratio into bins and learns the bin
// transition matrix online (with add-one smoothing); the prediction is
// the expected next-bin center given the current bin. On traces with
// regime structure it learns, e.g., that write bursts are short and
// revert to read-heavy.
type Markov struct {
	bins   int
	counts [][]float64
	cur    int
	seen   bool
}

var _ Forecaster = (*Markov)(nil)

// NewMarkov builds a predictor with the given bin count (>= 2).
func NewMarkov(bins int) (*Markov, error) {
	if bins < 2 {
		return nil, fmt.Errorf("forecast: need >= 2 bins, got %d", bins)
	}
	counts := make([][]float64, bins)
	for i := range counts {
		counts[i] = make([]float64, bins)
		for j := range counts[i] {
			counts[i][j] = 0.5 // smoothing prior
		}
	}
	return &Markov{bins: bins, counts: counts}, nil
}

func (m *Markov) bin(rr float64) int {
	if rr < 0 {
		rr = 0
	}
	if rr > 1 {
		rr = 1
	}
	b := int(rr * float64(m.bins))
	if b == m.bins {
		b--
	}
	return b
}

func (m *Markov) center(bin int) float64 {
	return (float64(bin) + 0.5) / float64(m.bins)
}

// Observe implements Forecaster.
func (m *Markov) Observe(rr float64) {
	b := m.bin(rr)
	if m.seen {
		m.counts[m.cur][b]++
	}
	m.cur = b
	m.seen = true
}

// Predict implements Forecaster.
func (m *Markov) Predict() float64 {
	if !m.seen {
		return 0.5
	}
	row := m.counts[m.cur]
	var total, acc float64
	for j, c := range row {
		total += c
		acc += c * m.center(j)
	}
	return acc / total
}
