package cluster

import "rafiki/internal/obs"

// clusterObs holds the coordinator's two gauges and the registry its
// per-stream spans go to; all nil when observability is disabled (every
// obs method is nil-safe). The counters are Stats' tagged fields.
type clusterObs struct {
	reg           *obs.Registry
	rangesPending *obs.Gauge // the live pending-range count
	overhead      *obs.Gauge
}

// newClusterObs resolves the coordinator's instruments against r; with
// r == nil the struct is the no-op state.
func newClusterObs(r *obs.Registry) clusterObs {
	if r == nil {
		return clusterObs{}
	}
	return clusterObs{
		reg:           r,
		rangesPending: r.Gauge("ring.ranges_pending"),
		overhead:      r.Gauge("cluster.coordinator_overhead_vsec"),
	}
}
