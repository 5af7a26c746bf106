package nosql

import "rafiki/internal/obs"

// engineObs holds the engine's pre-resolved gauges and histograms and
// the registry its spans go to; the counters are Metrics' tagged fields.
// All fields are nil when observability is disabled; every obs method is
// nil-safe, so the epoch close calls them unconditionally.
//
// Instrument names are scoped "nosql.*". Span axes are virtual seconds
// ("vsec"): flush and compaction spans run from the virtual time the
// task was enqueued to the epoch close that completed it.
type engineObs struct {
	reg *obs.Registry

	sstables *obs.Gauge
	clock    *obs.Gauge

	epochTput *obs.Histogram
	epochLat  *obs.Histogram
	scanLen   *obs.Histogram
}

// newEngineObs resolves the engine's instruments against r. With r ==
// nil every instrument is nil and the struct is the no-op state.
func newEngineObs(r *obs.Registry) engineObs {
	if r == nil {
		return engineObs{}
	}
	return engineObs{
		reg:      r,
		sstables: r.Gauge("nosql.sstables"),
		clock:    r.Gauge("nosql.clock_vsec"),
		// Throughput band covers the paper's 40k-110k ops/s range with
		// headroom; latency band covers the closed-loop Little's-law
		// values at those rates.
		epochTput: r.Histogram("nosql.epoch_throughput", 0, 200_000, 40),
		epochLat:  r.Histogram("nosql.epoch_latency_vsec", 0, 0.01, 40),
		scanLen:   r.Histogram("nosql.scan_len", 0, 512, 32),
	}
}
