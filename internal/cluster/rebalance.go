package cluster

import (
	"fmt"
	"slices"

	"rafiki/internal/obs"
	"rafiki/internal/ring"
)

// This file is the elastic-topology engine: AddNode/DecommissionNode
// diff the old serving assignment against the new ring and turn every
// arc that changes hands into a pendingRange, streamed src -> dest over
// the simulated network by a pump that advances one stream step per
// serving operation (so rebalance work interleaves with — and competes
// against — foreground load, exactly the tension the Ring experiment
// measures).
//
// Pending-range protocol. While a range is pending, the old owner (src)
// keeps serving and acknowledging it — serving() swaps dest back to src
// — and the coordinator forwards live writes to dest (mutate). The
// stream itself is three phases, every leg a real netsim message:
//
//	open    coordinator -> src: freeze the sorted key list of the range
//	catchup coordinator -> src -> dest: chunked replay of frozen keys
//	delta   coordinator -> src -> dest: one final full-range re-push,
//	        atomic within a single pump step, after which the range
//	        flips: dest starts serving, src stops.
//
// The flip preserves quorum intersection: dest's state at flip is a
// superset of src's (the delta re-pushes every key src holds, and
// last-write-wins apply means nothing regresses), and the serving set
// changes by exactly one slot (src out, dest in), so any read quorum
// after the flip intersects any write quorum from before it.
//
// Failure semantics. A stream leg the network loses after the open, or
// a src restart that discards the frozen key list (msgStreamGone), severs
// the stream: the range resets to the open phase and re-freezes on the
// next pump — the anti-entropy pass that repairs partition- or
// crash-interrupted rebalances. Failures before any state exists on
// src (open not yet answered, endpoint down) merely park the range
// behind an exponential pump-count backoff. Acked writes are never
// endangered by either path: src keeps serving the range throughout.

// Pending-range phases.
const (
	prOpen    = iota // stream not yet established on src
	prCatchup        // frozen key list streaming in chunks
)

// streamChunkKeys is how many frozen keys one catch-up pull moves.
const streamChunkKeys = 32

// pendingRange is one token arc mid-move: src still serves it, dest is
// catching up over a stream.
type pendingRange struct {
	id       uint64 // stream id (issued by streamSeq)
	iv       ring.Interval
	src      int
	dest     int
	phase    int
	cursor   int // frozen-list slots consumed so far
	total    int // frozen-list length (valid once opened)
	opened   bool
	openedAt float64 // coordinator clock at successful open
	backoff  int     // current park length in pump visits
	wait     int     // pump visits left to sit out
	done     bool
}

// pumpRebalance advances the rebalance by at most one stream action.
// It is called at the top of every serving operation (and by
// DrainRebalance), so topology changes make progress exactly as fast
// as the cluster is doing work — there is no background goroutine,
// and a seeded run is bit-for-bit deterministic.
func (c *Cluster) pumpRebalance() {
	if len(c.pending) == 0 {
		return
	}
	n := len(c.pending)
	for i := 0; i < n; i++ {
		c.pumpRR++
		pr := c.pending[int(c.pumpRR%uint64(n))]
		if pr.done {
			continue
		}
		if pr.wait > 0 {
			pr.wait--
			continue
		}
		c.advanceRange(pr)
		break
	}
	c.reapPending()
}

// advanceRange performs one stream step for pr: open, pull a chunk, or
// finish with the delta handoff.
func (c *Cluster) advanceRange(pr *pendingRange) {
	if c.down[pr.src] || c.down[pr.dest] {
		// No progress while either endpoint is down. A stream that was
		// already established is severed (the src may lose its frozen
		// list across the outage); one not yet opened just parks.
		if pr.opened {
			c.severRange(pr)
		} else {
			c.parkRange(pr)
		}
		return
	}
	switch pr.phase {
	case prOpen:
		if _, ok := c.attemptOp(pr.src); !ok {
			c.parkRange(pr)
			return
		}
		opened, _, ok := c.exchange(pr.src, pr.src, message{kind: msgStreamOpen, key: pr.id, iv: pr.iv})
		if !ok {
			c.parkRange(pr)
			return
		}
		pr.opened = true
		pr.openedAt = c.Clock()
		pr.total = opened.n
		pr.cursor = 0
		pr.phase = prCatchup
		pr.backoff = 0
		c.stats.StreamsStarted++
		if pr.total == 0 {
			c.finishRange(pr)
		}
	case prCatchup:
		if pr.cursor >= pr.total {
			c.finishRange(pr)
			return
		}
		if _, ok := c.attemptOp(pr.src); !ok {
			c.parkRange(pr)
			return
		}
		// Three legs can lose a pull — request, chunk, ack — and any
		// loss reads as a failed exchange against src's link.
		pulled, _, ok := c.exchange(pr.src, pr.dest, message{
			kind: msgStreamPull, key: pr.id, dest: pr.dest, n: pr.cursor, m: streamChunkKeys,
		})
		if !ok || pulled.kind == msgStreamGone {
			// The src no longer knows the stream (crash-restart wiped
			// it) or a leg of the exchange was lost mid-flight: the
			// frozen list can no longer be trusted, re-establish.
			c.severRange(pr)
			return
		}
		pr.cursor += pulled.n
		pr.backoff = 0
		c.stats.StreamedCells += uint64(pulled.m)
	}
}

// finishRange completes pr's handoff: dest's owed hints are replayed,
// then the src re-pushes the whole range as one atomic delta — writes
// forwarded, hinted, or raced during catch-up all land before the flip
// — and the range flips to dest at the next reap.
func (c *Cluster) finishRange(pr *pendingRange) {
	if len(c.hints[pr.dest]) > 0 || c.needRepair[pr.dest] {
		c.replayHints(pr.dest)
	}
	if _, ok := c.attemptOp(pr.src); !ok {
		c.parkRange(pr)
		return
	}
	delta, _, ok := c.exchange(pr.src, pr.dest, message{kind: msgDelta, iv: pr.iv, dest: pr.dest})
	if !ok {
		c.severRange(pr)
		return
	}
	c.stats.StreamedCells += uint64(delta.n)
	c.closeStream(pr.src, pr.id)
	pr.done = true
	c.stats.StreamsCompleted++
	c.o.streamSpan(pr.src, pr.dest, pr.openedAt, c.Clock(), pr.cursor+delta.n)
}

// severRange resets pr to re-establish its stream from scratch: the
// anti-entropy path for streams interrupted by partitions, crashes, or
// down endpoints.
func (c *Cluster) severRange(pr *pendingRange) {
	c.stats.StreamsSevered++
	pr.phase = prOpen
	pr.opened = false
	pr.cursor = 0
	pr.total = 0
	c.parkRange(pr)
}

// parkRange sits pr out for an exponentially growing number of pump
// visits (4 doubling to 64), so a dead endpoint does not burn every
// serving op's pump step on futile retries.
func (c *Cluster) parkRange(pr *pendingRange) {
	if pr.backoff == 0 {
		pr.backoff = 4
	} else if pr.backoff < 64 {
		pr.backoff *= 2
	}
	pr.wait = pr.backoff
}

// reapPending drops completed ranges; a range's disappearance is the
// serving flip (serving() stops swapping dest back to src).
func (c *Cluster) reapPending() {
	w := 0
	for _, pr := range c.pending {
		if !pr.done {
			c.pending[w] = pr
			w++
		}
	}
	for i := w; i < len(c.pending); i++ {
		c.pending[i] = nil
	}
	c.pending = c.pending[:w]
	c.o.rangesPending.Set(float64(w))
}

// retopology diffs the current serving assignment against next and
// rebuilds the pending set: every arc whose owners change gains one
// pendingRange per (src, dest) replacement. In-flight streams are
// superseded — severed and regenerated against the new target — which
// keeps correctness trivially: src keeps serving until a stream built
// against the *final* topology completes.
func (c *Cluster) retopology(next *ring.Ring) {
	// Arc endpoints: ownership is piecewise-constant between the union
	// of old tokens, new tokens, and current pending-range endpoints.
	bs := c.ring.Boundaries(nil)
	bs = next.Boundaries(bs)
	for _, pr := range c.pending {
		bs = append(bs, pr.iv.Lo, pr.iv.Hi)
	}
	slices.Sort(bs)
	bs = slices.Compact(bs)

	type move struct {
		iv        ring.Interval
		src, dest int
	}
	var moves []move
	diffArc := func(iv ring.Interval, pos uint64) {
		old := append([]int(nil), c.serving(pos)...)
		now := next.OwnersAt(nil, pos, c.rf)
		gained := now[:0:0]
		for _, n := range now {
			if !slices.Contains(old, n) {
				gained = append(gained, n)
			}
		}
		var lost []int
		for _, o := range old {
			if !slices.Contains(now, o) {
				lost = append(lost, o)
			}
		}
		for i, dest := range gained {
			src := -1
			if i < len(lost) {
				src = lost[i]
			} else if len(old) > 0 {
				// More owners gained than lost (the serving set was
				// below RF, e.g. the cluster grew past its member
				// floor): stream from any current serving owner.
				src = old[i%len(old)]
			}
			if src == -1 || src == dest {
				continue
			}
			moves = append(moves, move{iv: iv, src: src, dest: dest})
		}
	}
	if len(bs) == 0 {
		// No tokens on either ring: nothing can move.
		c.ring = next
		return
	}
	for i := 1; i < len(bs); i++ {
		diffArc(ring.Interval{Lo: bs[i-1], Hi: bs[i]}, bs[i])
	}
	// Wrap arc from the last boundary through zero to the first; its
	// representative position is the first boundary itself.
	diffArc(ring.Interval{Lo: bs[len(bs)-1], Hi: bs[0]}, bs[0])

	// Coalesce adjacent arcs moving between the same pair, so one
	// contiguous handover is one stream, not one per token arc.
	coalesced := moves[:0:0]
	for _, m := range moves {
		if n := len(coalesced); n > 0 {
			last := &coalesced[n-1]
			if last.src == m.src && last.dest == m.dest && last.iv.Hi == m.iv.Lo {
				last.iv.Hi = m.iv.Hi
				continue
			}
		}
		coalesced = append(coalesced, m)
	}

	// Supersede in-flight streams: anything already established is
	// severed (counted, closed at the src) and regenerated from the
	// fresh diff.
	for _, pr := range c.pending {
		if pr.opened {
			c.stats.StreamsSevered++
			if !c.down[pr.src] {
				c.closeStream(pr.src, pr.id)
			}
		}
	}
	c.pending = c.pending[:0]
	for _, m := range coalesced {
		c.streamSeq++
		pr := &pendingRange{id: c.streamSeq, iv: m.iv, src: m.src, dest: m.dest}
		c.pending = append(c.pending, pr)
		c.stats.RangesMoved++
		if m.iv.Lo == m.iv.Hi {
			c.movedSpan += 1.0
		} else {
			c.movedSpan += float64(m.iv.Span()) / (1 << 63) / 2
		}
	}
	c.o.rangesPending.Set(float64(len(c.pending)))
	c.ring = next
}

// AddNode elastically joins one node: a new engine (built from the
// same options, seeded by its slot like the originals, bootstrapped
// with the preloaded dataset), a new network endpoint, and a ring
// membership change whose moved ranges stream over as pending ranges.
// Returns the new node's index.
func (c *Cluster) AddNode() (int, error) {
	idx := len(c.nodes)
	eng, err := c.newEngine(idx)
	if err != nil {
		return 0, fmt.Errorf("cluster: add node %d: %w", idx, err)
	}
	if c.preloadVersions > 0 {
		eng.Preload(c.preloadVersions)
	}
	if nid := c.net.AddEndpoint(); nid != idx {
		return 0, fmt.Errorf("cluster: network endpoint %d does not match node slot %d", nid, idx)
	}
	c.nodes = append(c.nodes, eng)
	c.reps = append(c.reps, newReplica(eng))
	if err := c.net.SetHandler(idx, func(from int, payload any, at float64) {
		c.handleAtNode(idx, from, payload, at)
	}); err != nil {
		return 0, fmt.Errorf("cluster: add node %d: %w", idx, err)
	}
	c.member = append(c.member, true)
	c.down = append(c.down, false)
	c.hints = append(c.hints, nil)
	c.needRepair = append(c.needRepair, false)
	c.brk = append(c.brk, breaker{})
	c.retryTokens = append(c.retryTokens, 0)
	next := c.ring.Clone()
	if err := next.AddNode(idx); err != nil {
		return 0, fmt.Errorf("cluster: add node %d: %w", idx, err)
	}
	c.retopology(next)
	return idx, nil
}

// DecommissionNode removes node i from the ring. The node keeps
// serving every range it is streaming away until each handoff
// completes, then drops out of all serving sets; its slot is never
// reused.
func (c *Cluster) DecommissionNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if !c.member[i] {
		return fmt.Errorf("cluster: node %d is not a ring member", i)
	}
	if c.ring.Size()-1 < c.rf {
		return fmt.Errorf("cluster: cannot decommission node %d: %d members would not cover replication factor %d",
			i, c.ring.Size()-1, c.rf)
	}
	next := c.ring.Clone()
	if err := next.RemoveNode(i); err != nil {
		return fmt.Errorf("cluster: decommission node %d: %w", i, err)
	}
	c.member[i] = false
	c.retopology(next)
	return nil
}

// DrainRebalance pumps the rebalance until every pending range has
// flipped or budget pump steps are spent; it returns the steps used.
// Tests and experiments use it to reach topology quiescence without
// serving load.
func (c *Cluster) DrainRebalance(budget int) int {
	steps := 0
	for steps < budget && len(c.pending) > 0 {
		c.pumpRebalance()
		steps++
	}
	return steps
}

// PendingRanges returns how many token ranges are mid-move.
func (c *Cluster) PendingRanges() int { return len(c.pending) }

// Ring returns a snapshot of the target ring topology.
func (c *Cluster) Ring() *ring.Ring { return c.ring.Clone() }

// Members returns the sorted ids of the current ring members.
func (c *Cluster) Members() []int { return c.ring.Members() }

// MovedTokenFraction reports the cumulative fraction of the token
// circle ever scheduled to move by topology changes — the minimality
// metric the Ring experiment tracks (a join should move about
// RF/members of the circle, not all of it).
func (c *Cluster) MovedTokenFraction() float64 { return c.movedSpan }

// streamSpan records one completed stream as an obs span on the
// coordinator clock axis.
func (o *clusterObs) streamSpan(src, dest int, start, end float64, cells int) {
	if o.reg == nil {
		return
	}
	o.reg.Record(obs.Span{
		Name:  "ring.stream",
		Start: start,
		End:   end,
		Unit:  "vsec",
		Attrs: map[string]float64{
			"src":   float64(src),
			"dest":  float64(dest),
			"cells": float64(cells),
		},
	})
}
