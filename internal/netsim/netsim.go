// Package netsim is a seeded, virtual-time message network for the
// simulated cluster, in the style of FoundationDB's deterministic
// simulation layer: every replica read, write, hint, and repair
// travels as a message over an explicit link, and each ordered link
// can independently delay, drop, duplicate, or reorder traffic, or be
// severed entirely by an asymmetric partition.
//
// The network is single-goroutine and fully deterministic. All fate
// draws (drop, duplication, latency jitter) come from one seeded PRNG
// consumed in send order, and the perfect-network default (zero
// latency, lossless links) draws nothing at all, so a cluster built on
// a default network behaves bit-identically to one wired directly.
//
// Time is virtual: callers stamp each Send with their current virtual
// clock, sampled latencies are virtual seconds, and deliveries are
// handed to the destination handler tagged with their arrival time.
package netsim

import (
	"fmt"
	"math/rand"

	"rafiki/internal/obs"
)

// Coordinator is the endpoint id of the cluster coordinator. Node
// endpoints are 0..Nodes-1.
const Coordinator = -1

// Handler consumes one delivered message: the sender endpoint, the
// payload, and the virtual-time arrival. Handlers may send replies
// (re-entrant Send is safe; the network is single-goroutine).
type Handler func(from int, payload any, at float64)

// Condition is one link's fault state: independent drop and
// duplication probabilities per message, and a latency multiplier.
// The zero value is a healthy link (DelayFactor 0 is treated as 1).
type Condition struct {
	DropProb    float64
	DupProb     float64
	DelayFactor float64
}

// Options configures a network.
type Options struct {
	// Nodes is the node endpoint count (the coordinator endpoint is
	// always present in addition).
	Nodes int
	// Seed drives every fate draw.
	Seed int64
	// BaseLatency is the mean one-way delivery latency in virtual
	// seconds; 0 (the default) is instantaneous delivery.
	BaseLatency float64
	// Jitter spreads each latency sample uniformly over
	// [1-Jitter, 1+Jitter] times the base; it must lie in [0, 1).
	Jitter float64
	// Obs, when non-nil, receives the network's counters and
	// partition spans. Nil disables instrumentation.
	Obs *obs.Registry
}

// Stats are the network's lifetime totals.
type Stats struct {
	// Sent counts messages offered to the network and Delivered the
	// copies handed to a destination handler.
	Sent      uint64 `obs:"netsim.sent"`
	Delivered uint64 `obs:"netsim.delivered"`
	// Dropped counts messages lost to link drop probability and
	// PartitionDrops those swallowed by an active partition.
	Dropped        uint64 `obs:"netsim.dropped"`
	PartitionDrops uint64 `obs:"netsim.partition_drops"`
	// Duplicated counts extra copies created by link duplication.
	Duplicated uint64 `obs:"netsim.duplicated"`
	// Reordered counts per-link FIFO inversions: a message that
	// arrived before an earlier-sent message on the same link.
	Reordered uint64 `obs:"netsim.reordered"`
}

// link is the state of one ordered endpoint pair.
type link struct {
	cond        Condition
	partitioned bool
	partedAt    float64
	lastArrival float64
}

// Result is the fate of one Send to one destination.
type Result struct {
	// To is the destination endpoint.
	To int
	// Delivered reports whether at least one copy arrived.
	Delivered bool
	// Arrival is the earliest copy's virtual arrival time (only
	// meaningful when Delivered).
	Arrival float64
}

// Network routes messages between the coordinator and node endpoints.
type Network struct {
	n      int
	rng    *rand.Rand
	base   float64
	jitter float64

	links    []link
	handlers []Handler

	activeParts int
	stats       *Stats // the exported ledger: its own allocation
	o           netObs
}

// New builds a network with healthy links.
func New(opts Options) (*Network, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", opts.Nodes)
	}
	if opts.BaseLatency < 0 {
		return nil, fmt.Errorf("netsim: negative base latency %v", opts.BaseLatency)
	}
	if opts.Jitter < 0 || opts.Jitter >= 1 {
		return nil, fmt.Errorf("netsim: jitter %v out of [0, 1)", opts.Jitter)
	}
	m := opts.Nodes + 1
	nw := &Network{
		n:        opts.Nodes,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		base:     opts.BaseLatency,
		jitter:   opts.Jitter,
		links:    make([]link, m*m),
		handlers: make([]Handler, m),
		stats:    new(Stats),
		o:        newNetObs(opts.Obs),
	}
	opts.Obs.Export(nw.stats)
	return nw, nil
}

// AddEndpoint grows the network by one node endpoint (elastic
// scale-out) and returns its id. Existing link state — conditions,
// partitions, FIFO watermarks — is preserved; the new endpoint's links
// start healthy. No fate draws are consumed, so growth never perturbs
// the seeded message stream.
func (nw *Network) AddEndpoint() int {
	oldN := nw.n
	id := oldN
	nw.n++
	m := nw.n + 1
	links := make([]link, m*m)
	for from := Coordinator; from < oldN; from++ {
		for to := Coordinator; to < oldN; to++ {
			links[(from+1)*m+(to+1)] = nw.links[(from+1)*(oldN+1)+(to+1)]
		}
	}
	nw.links = links
	nw.handlers = append(nw.handlers, nil)
	return id
}

// Stats returns the lifetime totals.
func (nw *Network) Stats() Stats { return *nw.stats }

// idx maps an ordered endpoint pair to its link slot.
func (nw *Network) idx(from, to int) int {
	return (from+1)*(nw.n+1) + (to + 1)
}

// checkEndpoint validates one endpoint id.
func (nw *Network) checkEndpoint(ep int) error {
	if ep < Coordinator || ep >= nw.n {
		return fmt.Errorf("netsim: no endpoint %d (nodes 0..%d, coordinator %d)", ep, nw.n-1, Coordinator)
	}
	return nil
}

// checkLink validates an ordered endpoint pair.
func (nw *Network) checkLink(from, to int) error {
	if err := nw.checkEndpoint(from); err != nil {
		return err
	}
	if err := nw.checkEndpoint(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("netsim: self-link %d->%d", from, to)
	}
	return nil
}

// SetHandler installs the delivery handler for one endpoint.
func (nw *Network) SetHandler(ep int, h Handler) error {
	if err := nw.checkEndpoint(ep); err != nil {
		return err
	}
	nw.handlers[ep+1] = h
	return nil
}

// Partition severs the ordered link from -> to (asymmetric: the
// reverse direction keeps flowing unless partitioned separately).
func (nw *Network) Partition(from, to int, now float64) error {
	if err := nw.checkLink(from, to); err != nil {
		return err
	}
	l := &nw.links[nw.idx(from, to)]
	if l.partitioned {
		return fmt.Errorf("netsim: link %d->%d is already partitioned", from, to)
	}
	l.partitioned = true
	l.partedAt = now
	nw.activeParts++
	nw.o.partitions.Set(float64(nw.activeParts))
	return nil
}

// Heal restores the ordered link from -> to and records the partition
// window as an obs span.
func (nw *Network) Heal(from, to int, now float64) error {
	if err := nw.checkLink(from, to); err != nil {
		return err
	}
	l := &nw.links[nw.idx(from, to)]
	if !l.partitioned {
		return fmt.Errorf("netsim: link %d->%d is not partitioned", from, to)
	}
	l.partitioned = false
	nw.activeParts--
	nw.o.partitions.Set(float64(nw.activeParts))
	if nw.o.reg != nil {
		nw.o.reg.Record(obs.Span{
			Name:  "netsim.partition",
			Start: l.partedAt,
			End:   now,
			Unit:  "vsec",
			Attrs: map[string]float64{"from": float64(from), "to": float64(to)},
		})
	}
	return nil
}

// Partitioned reports whether the ordered link from -> to is severed.
func (nw *Network) Partitioned(from, to int) bool {
	if nw.checkLink(from, to) != nil {
		return false
	}
	return nw.links[nw.idx(from, to)].partitioned
}

// SetCondition installs drop/duplication/delay faults on the ordered
// link from -> to. The zero Condition heals it.
func (nw *Network) SetCondition(from, to int, cond Condition) error {
	if err := nw.checkLink(from, to); err != nil {
		return err
	}
	switch {
	case cond.DropProb < 0 || cond.DropProb > 1:
		return fmt.Errorf("netsim: drop probability %v out of [0,1]", cond.DropProb)
	case cond.DupProb < 0 || cond.DupProb > 1:
		return fmt.Errorf("netsim: duplication probability %v out of [0,1]", cond.DupProb)
	case cond.DelayFactor < 0:
		return fmt.Errorf("netsim: negative delay factor %v", cond.DelayFactor)
	}
	nw.links[nw.idx(from, to)].cond = cond
	return nil
}

// LinkCondition returns the ordered link's current condition.
func (nw *Network) LinkCondition(from, to int) Condition {
	if nw.checkLink(from, to) != nil {
		return Condition{}
	}
	return nw.links[nw.idx(from, to)].cond
}

// Send offers one message to the network at virtual time now. The
// link decides its fate — every draw (drop, duplication, one latency
// per copy) is taken and every counter settled first — and then each
// surviving copy is handed to the destination handler inline, earliest
// arrival first. A message has at most two copies, so their arrivals
// live in a fixed array and nothing is queued: a pointer payload makes
// the whole call allocation-free.
//
//rafiki:hot
func (nw *Network) Send(from, to int, payload any, now float64) Result {
	//lint:allow hotalloc checkLink builds an error only for a bad endpoint, a caller bug this panics on
	if err := nw.checkLink(from, to); err != nil {
		panic(err)
	}
	nw.stats.Sent++
	l := &nw.links[nw.idx(from, to)]
	if l.partitioned {
		nw.stats.PartitionDrops++
		return Result{To: to}
	}
	if p := l.cond.DropProb; p > 0 && nw.rng.Float64() < p {
		nw.stats.Dropped++
		return Result{To: to}
	}
	copies := 1
	if p := l.cond.DupProb; p > 0 && nw.rng.Float64() < p {
		copies = 2
		nw.stats.Duplicated++
	}
	var arrivals [2]float64
	for i := 0; i < copies; i++ {
		arrivals[i] = now + nw.latency(l)
	}
	if copies == 2 && arrivals[1] < arrivals[0] {
		arrivals[0], arrivals[1] = arrivals[1], arrivals[0]
	}
	for _, at := range arrivals[:copies] {
		if at < l.lastArrival {
			nw.stats.Reordered++
		}
		l.lastArrival = at
		nw.stats.Delivered++
	}
	// Handlers may Send re-entrantly, so this message's draws and link
	// state are final before the first one runs.
	for _, at := range arrivals[:copies] {
		if h := nw.handlers[to+1]; h != nil {
			h(from, payload, at)
		}
	}
	return Result{To: to, Delivered: true, Arrival: arrivals[0]}
}

// latency samples one copy's one-way latency on link l.
func (nw *Network) latency(l *link) float64 {
	if nw.base == 0 {
		return 0
	}
	factor := l.cond.DelayFactor
	if factor < 1 {
		factor = 1
	}
	lat := nw.base * factor
	if nw.jitter > 0 {
		lat *= 1 + nw.jitter*(2*nw.rng.Float64()-1)
	}
	return lat
}
