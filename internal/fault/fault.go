// Package fault is a deterministic, seeded fault-injection layer for
// the simulated datastore: it composes schedules of faults in virtual
// time — fail-stop outages, crash-restarts through commit-log replay,
// straggler degradation, transient per-op failure windows, and
// commit-log tail corruption — and applies them to a cluster (or a
// single engine) as its virtual clock passes each event's time.
//
// Everything is deterministic: the same schedule, seed, and workload
// produce bit-identical results, which is what lets the experiment
// suite compare resilience postures under the exact same adversity and
// assert reproducibility across runs.
package fault

import (
	"fmt"
	"sort"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Fail is a fail-stop outage: the node is down from At to Until
	// (reads route around it, writes are hinted), then recovers.
	Fail Kind = iota + 1
	// Restart crash-restarts the node at At: RAM state is lost and the
	// commit log replays. A CorruptFraction > 0 first tears that
	// fraction of the log tail, losing those acknowledged writes.
	Restart
	// Slow degrades the node from At to Until with DiskTax/CPUTax
	// multipliers on its cost model (a straggler), then heals it.
	Slow
	// Transient makes each op attempt on the node fail independently
	// with probability FailProb from At to Until (flaky NIC, GC pauses,
	// overload shedding).
	Transient
	// CorruptLog tears CorruptFraction of the node's commit-log tail at
	// At; the damage surfaces at the node's next restart.
	CorruptLog
	// Partition severs the directed network link Node -> Peer from At
	// to Until, then heals it. Asymmetric by construction: schedule the
	// mirrored event for a symmetric partition. Peer may be
	// CoordinatorEndpoint.
	Partition
	// NetFlaky makes the directed link Node -> Peer drop each message
	// independently with probability DropProb from At to Until.
	NetFlaky
	// NetDup makes the directed link Node -> Peer duplicate each
	// delivered message with probability DupProb from At to Until.
	NetDup
	// NetDelay multiplies the directed link Node -> Peer's base latency
	// by DelayFactor from At to Until.
	NetDelay
	// AddNode elastically joins a new node at At; its index is assigned
	// by the target (the next free slot). Node is ignored.
	AddNode
	// DecommissionNode removes node Node from the serving topology at
	// At; its ranges stream to the surviving owners (the node keeps
	// serving them until each handoff completes).
	DecommissionNode
	// RollingRestart crash-restarts every node present at At, one at a
	// time, spread evenly across [At, Until] — the operational pattern
	// most likely to race a rebalance. Node is ignored.
	RollingRestart
)

// CoordinatorEndpoint is the Node/Peer value addressing the cluster
// coordinator in network events (mirrors netsim.Coordinator).
const CoordinatorEndpoint = -1

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Restart:
		return "restart"
	case Slow:
		return "slow"
	case Transient:
		return "transient"
	case CorruptLog:
		return "corrupt-log"
	case Partition:
		return "partition"
	case NetFlaky:
		return "net-flaky"
	case NetDup:
		return "net-dup"
	case NetDelay:
		return "net-delay"
	case AddNode:
		return "add-node"
	case DecommissionNode:
		return "decommission"
	case RollingRestart:
		return "rolling-restart"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// network reports whether the event targets a network link rather than
// a node.
func (k Kind) network() bool {
	switch k {
	case Partition, NetFlaky, NetDup, NetDelay:
		return true
	}
	return false
}

// Event is one scheduled fault against one node (or, for network
// kinds, one directed link), in virtual seconds.
type Event struct {
	// Kind selects the fault class.
	Kind Kind
	// Node is the target node index; for network kinds it is the
	// directed link's source endpoint (CoordinatorEndpoint allowed).
	Node int
	// Peer is the directed link's destination endpoint for network
	// kinds (CoordinatorEndpoint allowed); ignored otherwise.
	Peer int
	// At is when the fault starts (virtual seconds).
	At float64
	// Until ends windowed faults (Fail, Slow, Transient, and all
	// network kinds); it must exceed At for those kinds and is ignored
	// for the others.
	Until float64
	// DiskTax and CPUTax are Slow's degradation multipliers (>= 1).
	DiskTax, CPUTax float64
	// FailProb is Transient's per-attempt failure probability.
	FailProb float64
	// CorruptFraction is the commit-log tail fraction torn by
	// CorruptLog and Restart events.
	CorruptFraction float64
	// DropProb, DupProb, and DelayFactor parameterize NetFlaky,
	// NetDup, and NetDelay link conditions.
	DropProb, DupProb, DelayFactor float64
}

// windowed reports whether the event has a duration.
func (e Event) windowed() bool {
	switch e.Kind {
	case Fail, Slow, Transient, Partition, NetFlaky, NetDup, NetDelay, RollingRestart:
		return true
	}
	return false
}

// targetless reports whether the event addresses the whole target
// rather than one node or link (Node/Peer are ignored).
func (e Event) targetless() bool {
	switch e.Kind {
	case AddNode, RollingRestart:
		return true
	}
	return false
}

// Validate reports event errors against a cluster of n nodes.
func (e Event) Validate(nodes int) error {
	if e.Kind.network() {
		if e.Node < CoordinatorEndpoint || e.Node >= nodes {
			return fmt.Errorf("fault: network event source endpoint %d of %d nodes", e.Node, nodes)
		}
		if e.Peer < CoordinatorEndpoint || e.Peer >= nodes {
			return fmt.Errorf("fault: network event peer endpoint %d of %d nodes", e.Peer, nodes)
		}
		if e.Node == e.Peer {
			return fmt.Errorf("fault: network event targets self-link %d", e.Node)
		}
	} else if !e.targetless() && (e.Node < 0 || e.Node >= nodes) {
		return fmt.Errorf("fault: event targets node %d of %d", e.Node, nodes)
	}
	if e.At < 0 {
		return fmt.Errorf("fault: negative event time %v", e.At)
	}
	if e.windowed() && e.Until <= e.At {
		return fmt.Errorf("fault: %s window [%v, %v] is empty", e.Kind, e.At, e.Until)
	}
	switch e.Kind {
	case Fail, Partition:
	case Slow:
		if e.DiskTax < 1 && e.CPUTax < 1 {
			return fmt.Errorf("fault: slow event needs a tax >= 1, got disk %v cpu %v", e.DiskTax, e.CPUTax)
		}
	case Transient:
		if e.FailProb <= 0 || e.FailProb > 1 {
			return fmt.Errorf("fault: transient probability %v out of (0,1]", e.FailProb)
		}
	case NetFlaky:
		if e.DropProb <= 0 || e.DropProb > 1 {
			return fmt.Errorf("fault: drop probability %v out of (0,1]", e.DropProb)
		}
	case NetDup:
		if e.DupProb <= 0 || e.DupProb > 1 {
			return fmt.Errorf("fault: duplication probability %v out of (0,1]", e.DupProb)
		}
	case NetDelay:
		if e.DelayFactor <= 1 {
			return fmt.Errorf("fault: delay factor %v must exceed 1", e.DelayFactor)
		}
	case Restart:
		if e.CorruptFraction < 0 || e.CorruptFraction > 1 {
			return fmt.Errorf("fault: corrupt fraction %v out of [0,1]", e.CorruptFraction)
		}
	case CorruptLog:
		if e.CorruptFraction <= 0 || e.CorruptFraction > 1 {
			return fmt.Errorf("fault: corrupt fraction %v out of (0,1]", e.CorruptFraction)
		}
	case AddNode, DecommissionNode, RollingRestart:
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is a set of fault events. Order does not matter; the
// injector sorts by start time.
type Schedule []Event

// Validate reports schedule errors against a cluster initially of n
// nodes. Topology events change the node count over virtual time, so
// each event is validated against the node-index bound in force when
// it fires — an AddNode at t=10 makes node index n targetable by any
// event at or after t=10. Events fire in (At, definition order), the
// injector's stable sort, and the walk here mirrors it. Overlapping
// Fail windows on the same node are rejected — a down node cannot fail
// again — as are double decommissions and schedules that decommission
// the last member; total-outage schedules are legal (that is a
// scenario worth measuring).
func (s Schedule) Validate(nodes int) error {
	if nodes <= 0 {
		return fmt.Errorf("fault: need a positive node count, got %d", nodes)
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s[order[a]].At < s[order[b]].At })
	bound := nodes   // node-index bound: slots ever allocated
	members := nodes // current member count
	decommissioned := make(map[int]bool)
	for _, i := range order {
		e := s[i]
		if err := e.Validate(bound); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
		switch e.Kind {
		case AddNode:
			bound++
			members++
		case DecommissionNode:
			if decommissioned[e.Node] {
				return fmt.Errorf("fault: event %d: node %d decommissioned twice", i, e.Node)
			}
			decommissioned[e.Node] = true
			members--
			if members < 1 {
				return fmt.Errorf("fault: event %d: decommissioning node %d leaves no members", i, e.Node)
			}
		}
	}
	// Reject overlapping fail-stop windows per node.
	perNode := make(map[int][]Event)
	for _, e := range s {
		if e.Kind == Fail {
			perNode[e.Node] = append(perNode[e.Node], e)
		}
	}
	for node, evs := range perNode {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].Until {
				return fmt.Errorf("fault: node %d has overlapping fail windows [%v,%v] and [%v,%v]",
					node, evs[i-1].At, evs[i-1].Until, evs[i].At, evs[i].Until)
			}
		}
	}
	// Reject overlapping partition windows per directed link: an
	// already-severed link cannot be severed again.
	perLink := make(map[[2]int][]Event)
	for _, e := range s {
		if e.Kind == Partition {
			perLink[[2]int{e.Node, e.Peer}] = append(perLink[[2]int{e.Node, e.Peer}], e)
		}
	}
	for link, evs := range perLink {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].Until {
				return fmt.Errorf("fault: link %d->%d has overlapping partition windows [%v,%v] and [%v,%v]",
					link[0], link[1], evs[i-1].At, evs[i-1].Until, evs[i].At, evs[i].Until)
			}
		}
	}
	return nil
}
