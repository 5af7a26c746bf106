package bench

import (
	"fmt"
	"strings"

	"rafiki/internal/workload"
)

// Figure3 regenerates the MG-RAST workload-pattern figure: read/write
// ratios per 15-minute window over 4 days, with abrupt regime
// transitions (Section 2.4.1).
func Figure3(env Env) (Report, error) {
	spec := workload.DefaultTraceSpec()
	spec.Seed = env.Seed
	trace, err := workload.SynthesizeTrace(spec)
	if err != nil {
		return Report{}, err
	}
	stats, err := workload.AnalyzeTrace(trace)
	if err != nil {
		return Report{}, err
	}

	summary := Table{
		Title:  "Trace regime composition (4 days, 15-minute windows)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"windows", fmt.Sprintf("%d", len(trace))},
			{"read-heavy fraction (RR >= 0.7)", pct(stats.ReadHeavyFrac)},
			{"write-heavy fraction (RR <= 0.3)", pct(stats.WriteHeavyFrac)},
			{"mixed fraction", pct(stats.MixedFrac)},
			{"abrupt transitions (|dRR| > 0.3)", fmt.Sprintf("%d", stats.Transitions)},
		},
	}

	// A coarse timeline of the first day: one character per window,
	// R/W/m by read ratio — the visual shape of Figure 3.
	var sb strings.Builder
	day := min(24*60/spec.WindowMinutes, len(trace))
	for _, w := range trace[:day] {
		switch {
		case w.ReadRatio >= 0.7:
			sb.WriteByte('R')
		case w.ReadRatio <= 0.3:
			sb.WriteByte('W')
		default:
			sb.WriteByte('m')
		}
	}
	timeline := Table{
		Title:  "First-day regime timeline (R=read-heavy, W=write-heavy, m=mixed)",
		Header: []string{"windows 0.." + fmt.Sprint(day-1)},
		Rows:   [][]string{{sb.String()}},
	}

	return Report{
		ID:     "figure3",
		Title:  "MG-RAST workload pattern (read/write ratio per 15-minute window)",
		Tables: []Table{summary, timeline},
		Notes: []string{
			"paper: periods of read-heavy, write-heavy and mixed activity with abrupt transitions lasting <= 15 minutes",
			"trace is synthetic (MG-RAST logs are not available); the regime-switching generator is calibrated to the figure's qualitative profile",
		},
	}, nil
}
