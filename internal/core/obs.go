package core

import (
	"rafiki/internal/config"
	"rafiki/internal/obs"
)

// countingCollector wraps a Collector so every benchmark sample the
// offline pipeline spends shows up on the core.samples counter — the
// natural work axis for the identify and collect stage spans, since a
// single Sample call (one full simulated benchmark) dwarfs everything
// else those stages do.
type countingCollector struct {
	inner   Collector
	samples *obs.Counter
}

func (c countingCollector) Sample(w Workload, cfg config.Config, seed int64) (float64, error) {
	c.samples.Inc()
	return c.inner.Sample(w, cfg, seed)
}

// recordStage traces one offline-pipeline stage as a span. Each stage
// runs on the work axis that dominates its cost: benchmark samples for
// identify/collect, training epochs for train, surrogate evaluations
// for search.
func (t *Tuner) recordStage(name string, start, end uint64, unit string, attrs map[string]float64) {
	if t.opts.Obs == nil {
		return
	}
	t.opts.Obs.Record(obs.Span{
		Name:  name,
		Start: float64(start),
		End:   float64(end),
		Unit:  unit,
		Attrs: attrs,
	})
}
