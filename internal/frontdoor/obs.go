package frontdoor

import "rafiki/internal/obs"

// fdObs holds the front door's pre-resolved gauges and latency
// histograms; all nil (a no-op) when observability is disabled. The
// counters are Result's tagged fields.
type fdObs struct {
	maxQueueDepth *obs.Gauge
	tenants       *obs.Gauge

	latency      *obs.Histogram
	classLatency []*obs.Histogram
}

// newFDObs resolves the instruments against r (nil-safe): one latency
// histogram overall plus one per tenant class.
func newFDObs(r *obs.Registry, classes []TenantClass) fdObs {
	if r == nil {
		return fdObs{classLatency: make([]*obs.Histogram, len(classes))}
	}
	o := fdObs{
		maxQueueDepth: r.Gauge("frontdoor.max_queue_depth"),
		tenants:       r.Gauge("frontdoor.tenants"),
		latency:       r.Histogram("frontdoor.latency", 0, latencyHi, 64),
		classLatency:  make([]*obs.Histogram, len(classes)),
	}
	for i, tc := range classes {
		o.classLatency[i] = r.Histogram("frontdoor.latency."+tc.Name, 0, latencyHi, 64)
	}
	return o
}
