package netsim

import "rafiki/internal/obs"

// netObs holds the registry (for partition spans) and the network's one
// gauge; all nil when observability is disabled (every obs method is
// nil-safe). The counters are Stats' tagged fields, and sends conserve:
//
//	Delivered + Dropped + PartitionDrops == Sent + Duplicated
type netObs struct {
	reg        *obs.Registry
	partitions *obs.Gauge
}

// newNetObs resolves the network's instruments against r; with r ==
// nil the struct is the no-op state.
func newNetObs(r *obs.Registry) netObs {
	if r == nil {
		return netObs{}
	}
	return netObs{reg: r, partitions: r.Gauge("netsim.active_partitions")}
}
