package workload

import (
	"fmt"
	"math"

	"rafiki/internal/stats"
)

// Op is one logged query in a raw trace.
type Op struct {
	// IsRead distinguishes read queries from writes/updates.
	IsRead bool
	// Key is the accessed key.
	Key uint64
}

// Characterization is the output of Rafiki's workload-characterization
// stage: the per-window read ratios and the fitted KRD distribution
// (Section 3.3).
type Characterization struct {
	// WindowReadRatios is RR per observation window.
	WindowReadRatios []float64
	// KRD is the exponential fit of key-reuse distances.
	KRD stats.Exponential
	// SampledDistances is how many reuse distances informed the fit.
	SampledDistances int
}

// Characterize analyzes a raw op stream, computing RR over fixed-size
// op windows and fitting an exponential to observed key reuse
// distances (number of queries between accesses to the same key).
func Characterize(ops []Op, windowOps int) (Characterization, error) {
	if len(ops) == 0 {
		return Characterization{}, fmt.Errorf("workload: empty op stream")
	}
	if windowOps <= 0 {
		return Characterization{}, fmt.Errorf("workload: window size must be positive, got %d", windowOps)
	}

	var (
		ratios    []float64
		reads     int
		lastSeen  = make(map[uint64]int, 4096)
		distances []float64
	)
	for i, op := range ops {
		if op.IsRead {
			reads++
		}
		if prev, ok := lastSeen[op.Key]; ok {
			distances = append(distances, float64(i-prev))
		}
		lastSeen[op.Key] = i
		if (i+1)%windowOps == 0 {
			ratios = append(ratios, float64(reads)/float64(windowOps))
			reads = 0
		}
	}
	if rem := len(ops) % windowOps; rem > 0 {
		ratios = append(ratios, float64(reads)/float64(rem))
	}

	out := Characterization{
		WindowReadRatios: ratios,
		SampledDistances: len(distances),
	}
	if len(distances) > 0 {
		fit, err := stats.FitExponential(distances)
		if err != nil {
			return Characterization{}, fmt.Errorf("workload: KRD fit: %w", err)
		}
		out.KRD = fit
	}
	return out, nil
}

// RegimeStats summarizes a trace's regime composition, used to check
// the synthesizer reproduces Figure 3's qualitative profile.
type RegimeStats struct {
	// Fractions of windows with RR >= 0.7, RR <= 0.3, and in between.
	ReadHeavyFrac, WriteHeavyFrac, MixedFrac float64
	// Transitions counts windows whose RR moved by more than 0.3 from
	// the previous window — the abrupt switches the paper highlights.
	Transitions int
}

// AnalyzeTrace computes regime statistics from a window series.
func AnalyzeTrace(ws []Window) (RegimeStats, error) {
	if len(ws) == 0 {
		return RegimeStats{}, fmt.Errorf("workload: empty trace")
	}
	var out RegimeStats
	for i, w := range ws {
		switch {
		case w.ReadRatio >= 0.7:
			out.ReadHeavyFrac++
		case w.ReadRatio <= 0.3:
			out.WriteHeavyFrac++
		default:
			out.MixedFrac++
		}
		if i > 0 && math.Abs(w.ReadRatio-ws[i-1].ReadRatio) > 0.3 {
			out.Transitions++
		}
	}
	n := float64(len(ws))
	out.ReadHeavyFrac /= n
	out.WriteHeavyFrac /= n
	out.MixedFrac /= n
	return out, nil
}
