package core

import "rafiki/internal/obs"

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
