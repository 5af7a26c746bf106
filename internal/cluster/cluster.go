// Package cluster deploys several simulated storage engines as a
// peer-to-peer cluster, the paper's multi-server setup (Section 4.9)
// grown into a production topology: keys are placed by a consistent-
// hash token ring with virtual nodes (internal/ring), every request is
// routed token-aware to the key's RF owners, and the topology is
// elastic — AddNode/DecommissionNode trigger a deterministic streaming
// rebalance with a pending-range protocol (see rebalance.go). Multiple
// client "shooters" are modeled by letting node clocks advance
// independently — the cluster is as slow as its busiest node.
//
// All replica traffic — reads, writes, hint replay, repair streaming —
// travels as messages through a simulated network (internal/netsim)
// rather than direct method calls, so asymmetric partitions, message
// loss, duplication, and reordering hit the coordination protocol the
// way they would a real deployment. The default network is perfect
// (zero latency, lossless), which makes the message layer behaviorally
// identical to direct calls until faults are injected.
package cluster

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/netsim"
	"rafiki/internal/nosql"
	"rafiki/internal/obs"
	"rafiki/internal/ring"
)

// Options configures a cluster.
type Options struct {
	// Nodes is the number of server instances.
	Nodes int
	// ReplicationFactor is how many nodes hold each key. The paper's
	// two-server experiment raises RF so each instance stores the same
	// number of keys as the single-server case.
	ReplicationFactor int
	// Space and Config configure every node identically.
	Space  *config.Space
	Config config.Config
	// Hardware and Model pass through to each engine; zero values use
	// defaults.
	Hardware nosql.Hardware
	Model    nosql.CostModel
	// Seed derives per-node seeds and the ring's token positions.
	Seed int64
	// EpochOps passes through to each engine.
	EpochOps int
	// Obs, when non-nil, receives coordinator counters and, shared
	// across all nodes, each engine's instruments. Nil disables
	// instrumentation at ~zero cost.
	Obs *obs.Registry
	// NetBaseLatency and NetJitter configure the simulated network's
	// per-message latency (see netsim.Options). Both zero — the default
	// — yields a perfect network whose message layer behaves exactly
	// like direct calls.
	NetBaseLatency float64
	NetJitter      float64
}

// Cluster is a set of replicated engines behind a coordinator.
type Cluster struct {
	nodes []*nosql.Engine
	rf    int
	// ring is the consistent-hash partitioner (always the *target*
	// topology); member marks which node slots are current ring members
	// (false once a decommission is requested — slots are never
	// reused). pending holds the token ranges mid-rebalance; see
	// rebalance.go for the pending-range protocol.
	ring    *ring.Ring
	member  []bool
	pending []*pendingRange
	// pumpRR round-robins pump work across pending ranges; streamSeq
	// issues stream ids; movedSpan accumulates the token-space length
	// of every range ever scheduled to move (for the moved-fraction
	// report).
	pumpRR    uint64
	streamSeq uint64
	movedSpan float64
	// ownerScratch backs the per-op ownership walk; baseOpts remembers
	// the construction options so elastically added nodes are built
	// identically; preloadVersions lets a joining node bootstrap the
	// preloaded dataset the original members carry.
	ownerScratch    []int
	baseOpts        Options
	preloadVersions int
	// net carries every replica interaction; reps are the node-side
	// message endpoints wrapping the engines.
	net  *netsim.Network
	reps []*replica
	// seq issues globally monotonic write versions; reqID matches
	// responses to their exchange; req is the slot every coordinator
	// request travels in and inbox collects the coordinator-bound
	// responses of the in-flight exchange (see transport.go).
	seq   int64
	reqID uint64
	req   message
	inbox []inboxEntry
	// live, order, healthy, slow and answers are one read's or scan's
	// replica bookkeeping, reused from op to op; acks holds a
	// mutation's acked leg times, ascending, and lanes times a read's or
	// scan's legs.
	live, order, healthy, slow []int
	answers                    []answer
	acks                       []float64
	lanes                      lanes
	// reads are rotated across replicas per key; scans rotate on their
	// own counter so the two balancing streams stay independent.
	rotation     uint64
	scanRotation uint64
	// down marks failed nodes; hints buffers mutations owed to them.
	down    []bool
	hints   [][]hint
	readCL  ConsistencyLevel
	writeCL ConsistencyLevel
	// weakRead is the test-only seeded consistency bug: when set, a
	// QUORUM/ALL read serves from a single replica while still claiming
	// its configured level. See WeakenReadQuorumForTest.
	weakRead bool
	stats    *Stats // the exported ledger: its own allocation

	// res holds the coordinator's resilience posture; injector, when
	// set, is the per-attempt transient-fault source.
	res      ResilienceOptions
	injector FaultInjector
	// needRepair marks nodes whose hint buffer overflowed: replaying
	// the surviving hints cannot converge them, a full repair must.
	needRepair []bool
	// brk is the per-replica-link circuit breaker state and retryTokens
	// the per-link retry budget (see ResilienceOptions.BreakerFailures
	// and RetryBudgetFrac); both are inert until those options arm them.
	brk         []breaker
	retryTokens []float64
	// overhead is coordinator-side virtual time (timeout and backoff
	// waits, amortized over the in-flight op window); the cluster is as
	// slow as its busiest node plus what the coordinator spent waiting.
	overhead float64

	o clusterObs
}

// newEngine builds node slot idx's engine from the cluster's options,
// seeded by the slot: a node joining later is built as New would have.
// Nodes keep no epoch series: Metrics drops them.
func (c *Cluster) newEngine(idx int) (*nosql.Engine, error) {
	o := c.baseOpts
	return nosql.New(nosql.Options{
		Space:           o.Space,
		Config:          o.Config,
		Hardware:        o.Hardware,
		Model:           o.Model,
		Seed:            o.Seed + int64(idx)*1_000_003,
		EpochOps:        o.EpochOps,
		Obs:             o.Obs,
		DropEpochSeries: true,
	})
}

// New builds a cluster of identical nodes.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", opts.Nodes)
	}
	if opts.ReplicationFactor <= 0 || opts.ReplicationFactor > opts.Nodes {
		return nil, fmt.Errorf("cluster: replication factor %d out of [1, %d]", opts.ReplicationFactor, opts.Nodes)
	}
	c := &Cluster{
		rf:          opts.ReplicationFactor,
		ring:        ring.New(opts.Seed^0x72696e67, ring.DefaultVNodes), // decorrelate from node seeds
		member:      make([]bool, opts.Nodes),
		down:        make([]bool, opts.Nodes),
		hints:       make([][]hint, opts.Nodes),
		needRepair:  make([]bool, opts.Nodes),
		brk:         make([]breaker, opts.Nodes),
		retryTokens: make([]float64, opts.Nodes),
		readCL:      ConsistencyOne,
		writeCL:     ConsistencyOne,
		res:         PassiveResilience(),
		baseOpts:    opts,
		stats:       new(Stats),
		o:           newClusterObs(opts.Obs),
	}
	for i := 0; i < opts.Nodes; i++ {
		if err := c.ring.AddNode(i); err != nil {
			return nil, fmt.Errorf("cluster: ring: %w", err)
		}
		c.member[i] = true
	}
	for i := 0; i < opts.Nodes; i++ {
		eng, err := c.newEngine(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, eng)
		c.reps = append(c.reps, newReplica(eng))
	}
	nw, err := netsim.New(netsim.Options{
		Nodes:       opts.Nodes,
		Seed:        opts.Seed ^ 0x6e65747369, // decorrelate from node seeds
		BaseLatency: opts.NetBaseLatency,
		Jitter:      opts.NetJitter,
		Obs:         opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: network: %w", err)
	}
	c.net = nw
	if err := c.wireHandlers(); err != nil {
		return nil, fmt.Errorf("cluster: network: %w", err)
	}
	opts.Obs.Export(c.stats)
	return c, nil
}

// Net exposes the simulated network carrying the cluster's replica
// traffic, for fault injection (partitions, loss, delay) and stats.
func (c *Cluster) Net() *netsim.Network { return c.net }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Preload installs the dataset on every node. Preloaded data is
// replicated everywhere (the paper's two-server setup stores an
// equivalent number of keys per instance); runtime writes respect the
// replica placement. Nodes joining later bootstrap the same dataset,
// so only versioned runtime state ever needs streaming.
func (c *Cluster) Preload(versions int) {
	c.preloadVersions = versions
	for _, n := range c.nodes {
		n.Preload(versions)
	}
}

// Apply reconfigures every node (and nodes added later).
func (c *Cluster) Apply(cfg config.Config) error {
	c.baseOpts.Config = cfg
	for i, n := range c.nodes {
		if err := n.Apply(cfg); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// replicas returns the node indexes currently serving key, primary
// first. The returned slice is coordinator scratch, valid until the
// next placement lookup.
//
//rafiki:hot
func (c *Cluster) replicas(key uint64) []int {
	return c.serving(ring.KeyPos(key))
}

// serving resolves a ring position to the nodes serving it right now:
// the target ring's RF distinct owners, with every in-flight pending
// range swapping its destination back to the streaming source — the
// old owner keeps serving (and acknowledging) the moving range until
// the handoff completes, so read and write quorums keep intersecting
// across the topology change.
//
//rafiki:hot
func (c *Cluster) serving(pos uint64) []int {
	owners := c.ring.OwnersAt(c.ownerScratch[:0], pos, c.rf)
	c.ownerScratch = owners
	for _, pr := range c.pending {
		if !pr.iv.Contains(pos) {
			continue
		}
		for i, n := range owners {
			if n == pr.dest {
				owners[i] = pr.src
			}
		}
	}
	// A swap can alias two slots onto one node (the source may already
	// be an owner of the same arc); dedupe preserving order so quorum
	// accounting never counts one node twice.
	w := 0
	for _, n := range owners {
		dup := false
		for j := 0; j < w; j++ {
			if owners[j] == n {
				dup = true
				break
			}
		}
		if !dup {
			owners[w] = n
			w++
		}
	}
	return owners[:w]
}

// hint is a versioned mutation buffered for a replica that could not
// be reached (down, timed out, retry-exhausted, or lost in the
// network).
type hint struct {
	key uint64
	c   cell
}

// WriteResult reports a mutation's coordinator-visible outcome.
type WriteResult struct {
	// Version is the coordinator-issued version of this mutation.
	Version int64
	// Acked is how many replicas acknowledged it; Acked == 0 counted
	// as an unavailable write.
	Acked int
	// OK reports the write met the configured write consistency level.
	OK bool
	// Latency is the request's critical path in virtual seconds: its
	// replica legs run side by side, so it is the ack that met the
	// level, or the slowest leg when none could.
	Latency float64
}

// Write routes a write to every replica. A replica that cannot be
// reached — down, timed out, retry-exhausted, or lost in the network —
// is owed the mutation as a hint on the coordinator (hinted handoff),
// replayed when it recovers; a write acknowledged by no replica at all
// counts as unavailable.
//
//rafiki:hot
func (c *Cluster) Write(key uint64) {
	c.mutate(key, false)
}

// Delete routes a tombstone write to every replica, with the same
// hinted-handoff semantics as Write.
//
//rafiki:hot
func (c *Cluster) Delete(key uint64) {
	c.mutate(key, true)
}

// WriteOp is Write returning the versioned outcome, for consistency
// checking.
//
//rafiki:hot
func (c *Cluster) WriteOp(key uint64) WriteResult {
	return c.mutate(key, false)
}

// DeleteOp is Delete returning the versioned outcome.
//
//rafiki:hot
func (c *Cluster) DeleteOp(key uint64) WriteResult {
	return c.mutate(key, true)
}

// leg runs one replica leg of a request on node idx — the attempt
// protocol, then the exchange — and returns the reply, the leg's
// virtual time (its coordinator waits plus the exchange's own time) and
// whether it was answered. A down replica, a live one whose op attempt
// timed out or failed past its retry budget, and one whose request or
// reply the network lost all fail the leg; a write's caller owes them
// the mutation as a hint.
//
//rafiki:hot
func (c *Cluster) leg(idx int, req message) (message, float64, bool) {
	if c.down[idx] {
		return message{}, 0, false
	}
	wait, ok := c.attemptOp(idx)
	if !ok {
		return message{}, wait, false
	}
	resp, t, ok := c.exchange(idx, idx, req)
	return resp, wait + t, ok
}

//rafiki:hot
func (c *Cluster) mutate(key uint64, tombstone bool) WriteResult {
	c.pumpRebalance() //lint:allow hotalloc a no-op unless a topology change is in flight; stream steps amortize over the rebalance
	c.stats.Mutations++
	c.seq++
	wc := newCell(c.seq, tombstone)
	req := message{kind: msgWrite, key: key, c: wc}
	acks, slowest := c.acks[:0], 0.0
	owners := c.replicas(key)
	for _, idx := range owners {
		_, t, ok := c.leg(idx, req)
		slowest = max(slowest, t)
		if ok {
			// Insert in order: acks[k-1] is the k-th fastest.
			i := len(acks)
			acks = append(acks, t)
			for ; i > 0 && acks[i-1] > t; i-- {
				acks[i] = acks[i-1]
			}
			acks[i] = t
		} else {
			c.addHint(idx, hint{key: key, c: wc}) //lint:allow hotalloc hints buffer only for an unreachable replica; the buffer is capped
		}
	}
	c.acks = acks
	acked, need := len(acks), c.writeCL.replicasNeeded(c.rf)
	// Forward the mutation to every pending destination catching up on
	// this key's range: the new owner must observe writes issued while
	// its stream is in flight, and one it cannot be handed is owed as a
	// hint exactly like to a down node. Forwarded copies never count
	// toward the ack quorum — the serving owners alone decide that.
	pos := ring.KeyPos(key)
	for _, pr := range c.pending {
		if !pr.iv.Contains(pos) {
			continue
		}
		dest := pr.dest
		already := false
		for _, idx := range owners {
			if idx == dest {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if _, _, ok := c.leg(dest, req); ok {
			c.stats.ForwardedWrites++
		} else {
			c.addHint(dest, hint{key: key, c: wc}) //lint:allow hotalloc hints buffer only for an unreachable replica; the buffer is capped
		}
	}
	if acked == 0 {
		c.stats.UnavailableWrites++
	} else if acked < need {
		c.stats.UnackedWrites++
	}
	// The mutation completes at its need-th fastest ack; short of the
	// level, when its slowest leg is known to have failed.
	latency := slowest
	if acked >= need {
		latency = acks[need-1]
	}
	return WriteResult{
		Version: wc.ver(),
		Acked:   acked,
		OK:      acked >= need,
		Latency: latency,
	}
}

// ReadResult reports a read's coordinator-visible outcome.
type ReadResult struct {
	// Version is the newest version among the replicas that answered
	// (0 when none holds versioned state for the key, e.g. it was only
	// ever preloaded).
	Version int64
	// Deleted reports that the winning version is a tombstone.
	Deleted bool
	// Served is how many replicas answered; OK whether the configured
	// consistency level was met.
	Served int
	OK     bool
	// Latency is the request's critical path in virtual seconds (see
	// lanes); read repair runs off it.
	Latency float64
}

// Read serves a read from as many live replicas as the configured
// consistency level requires; see ReadOp.
//
//rafiki:hot
func (c *Cluster) Read(key uint64) {
	c.ReadOp(key)
}

// ReadOp serves a read from as many live replicas as the configured
// consistency level requires, starting from a rotated offset so load
// balances (the LCG rotation avoids correlating with key-sequence
// patterns). With speculative reads enabled, replicas degraded beyond
// the speculation threshold are demoted behind healthier backups; a
// replica whose op attempt times out, fails past its retry budget, or
// whose exchange is lost in the network is skipped in favour of the
// next live one. A read that cannot hear back from enough replicas
// counts as unavailable. When consulted replicas disagree, the newest
// version wins and stale responders are repaired in the background
// (read repair).
//
//rafiki:hot
func (c *Cluster) ReadOp(key uint64) ReadResult {
	c.pumpRebalance() //lint:allow hotalloc a no-op unless a topology change is in flight; stream steps amortize over the rebalance
	c.stats.Reads++
	need := c.readNeed()
	order, ok := c.consultOrder(c.replicas(key), &c.rotation, need)
	if !ok {
		c.stats.UnavailableReads++
		return ReadResult{}
	}
	served := 0
	var best cell
	answers := c.answers[:0]
	c.lanes.reset(need)
	for _, idx := range order {
		if served == need {
			break
		}
		resp, t, ok := c.leg(idx, message{kind: msgRead, key: key})
		c.lanes.book(t, ok)
		if !ok {
			continue
		}
		served++
		var got cell
		if resp.has {
			got = resp.c
		}
		answers = append(answers, answer{idx: idx, c: got})
		if got.ver() > best.ver() {
			best = got
		}
	}
	c.answers = answers
	latency := c.lanes.latency()
	if served < need {
		c.stats.UnavailableReads++
		return ReadResult{Served: served, Latency: latency}
	}
	// Read repair: any consulted replica that answered with an older
	// version than the winner gets the winning cell written back, so
	// quorum overlap converges divergent replicas on the read path.
	if best.ver() > 0 {
		for _, a := range answers {
			if a.c.ver() >= best.ver() {
				continue
			}
			if _, _, ok := c.exchange(a.idx, a.idx, message{kind: msgWrite, key: key, c: best}); ok {
				c.stats.ReadRepairs++
			}
		}
	}
	return ReadResult{
		Version: best.ver(),
		Deleted: best.ver() > 0 && best.tomb(),
		Served:  served,
		OK:      true,
		Latency: latency,
	}
}

// answer is one consulted replica's versioned reply to a read.
type answer struct {
	idx int
	c   cell
}

// lanes times a read's or scan's legs: need of them start side by side,
// and a failed leg's replacement starts on its lane once that failure
// is known. free holds each open lane's ready time; an answered leg
// closes its lane, and done is the latest answer.
type lanes struct {
	free []float64
	done float64
}

// reset opens need lanes, all ready at the request's start.
//
//rafiki:hot
func (l *lanes) reset(need int) {
	l.free, l.done = l.free[:0], 0
	for range need {
		l.free = append(l.free, 0)
	}
}

// book times the next leg, of virtual time t, on the earliest-ready lane.
//
//rafiki:hot
func (l *lanes) book(t float64, ok bool) {
	i := 0
	for j, f := range l.free {
		if f < l.free[i] {
			i = j
		}
	}
	end := l.free[i] + t
	if !ok {
		l.free[i] = end
		return
	}
	l.done = max(l.done, end)
	l.free[i] = l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
}

// latency is when the request completes: at its last answer once every
// lane has one, else when its last failure is known.
func (l *lanes) latency() float64 {
	t := l.done
	for _, f := range l.free {
		t = max(t, f)
	}
	return t
}

// readNeed is how many replicas a read or scan must hear from.
func (c *Cluster) readNeed() int {
	need := c.readCL.replicasNeeded(c.rf)
	if c.weakRead && need > 1 {
		need = 1
	}
	return need
}

// consultOrder picks the replicas a read or scan consults, in order:
// the live ones among owners, rotated by the next step of *rotation so
// load balances (the LCG avoids correlating with key-sequence patterns),
// with stragglers demoted when speculative reads are on. It reports
// false — leaving the rotation untouched — when fewer than need are
// live. The result is coordinator scratch, valid until the next call.
//
//rafiki:hot
func (c *Cluster) consultOrder(owners []int, rotation *uint64, need int) ([]int, bool) {
	live := c.live[:0]
	for _, idx := range owners {
		if !c.down[idx] {
			live = append(live, idx)
		}
	}
	c.live = live
	if len(live) < need {
		return nil, false
	}
	*rotation = *rotation*6364136223846793005 + 1442695040888963407
	start := int((*rotation >> 33) % uint64(len(live)))
	order := c.order[:0]
	for i := range live {
		order = append(order, live[(start+i)%len(live)])
	}
	c.order = order
	if c.res.SpeculativeReads {
		order = c.speculate(order, need)
	}
	return order, true
}

// ScanResult reports a range scan's coordinator-visible outcome.
type ScanResult struct {
	// Rows is the newest (largest) live-row count among the replicas
	// that answered.
	Rows int
	// Served is how many replicas answered; OK whether the configured
	// read consistency level was met.
	Served int
	OK     bool
	// Latency is the request's critical path in virtual seconds, timed
	// as a read's (see lanes).
	Latency float64
}

// Scan walks keys in ascending order from start across the cluster and
// returns the live rows found before reaching limit; it satisfies
// workload.Scanner so mixed-op workloads drive the coordinator's scan
// path. See ScanOp.
func (c *Cluster) Scan(start uint64, limit int) int {
	return c.ScanOp(start, limit).Rows
}

// ScanOp serves a range scan from as many live replicas as the read
// consistency level requires. Routing is token-aware: the coordinator
// consults the serving owners of the scan's start key in rotated order
// (the same balancing as reads), each walking its local merged
// iterator, and the newest view — the largest live-row count — wins.
// (A long scan can run past the start key's token range; owners of
// later ranges hold the preloaded base plus their own writes, so the
// count is an approximation the moment the cluster outgrows RF ==
// Nodes — acceptable for a row-count oracle.) A scan that cannot hear
// back from enough replicas counts as unavailable.
//
//rafiki:hot
func (c *Cluster) ScanOp(start uint64, limit int) ScanResult {
	c.pumpRebalance() //lint:allow hotalloc a no-op unless a topology change is in flight; stream steps amortize over the rebalance
	c.stats.Scans++
	need := c.readNeed()
	order, ok := c.consultOrder(c.serving(ring.KeyPos(start)), &c.scanRotation, need)
	if !ok {
		c.stats.UnavailableScans++
		return ScanResult{}
	}
	served, best := 0, 0
	c.lanes.reset(need)
	for _, idx := range order {
		if served == need {
			break
		}
		resp, t, ok := c.leg(idx, message{kind: msgScan, key: start, n: limit})
		c.lanes.book(t, ok)
		if !ok {
			continue
		}
		served++
		if resp.n > best {
			best = resp.n
		}
	}
	latency := c.lanes.latency()
	if served < need {
		c.stats.UnavailableScans++
		return ScanResult{Served: served, Latency: latency}
	}
	return ScanResult{Rows: best, Served: served, OK: true, Latency: latency}
}

// speculate demotes stragglers behind healthy replicas in the read
// order, preserving the rotation order within each class, and counts
// how many straggler consultations the reorder avoided.
//
//rafiki:hot
func (c *Cluster) speculate(order []int, need int) []int {
	slowBefore := 0
	for i, idx := range order {
		if i < need && c.slowness(idx) >= c.res.SpeculationThreshold {
			slowBefore++
		}
	}
	if slowBefore == 0 {
		return order
	}
	healthy, slow := c.healthy[:0], c.slow[:0]
	for _, idx := range order {
		if c.slowness(idx) >= c.res.SpeculationThreshold {
			slow = append(slow, idx)
		} else {
			healthy = append(healthy, idx)
		}
	}
	reordered := append(healthy, slow...)
	c.healthy, c.slow = reordered, slow
	slowAfter := 0
	for i, idx := range reordered {
		if i < need && c.slowness(idx) >= c.res.SpeculationThreshold {
			slowAfter++
		}
	}
	c.stats.SpeculativeReads += uint64(slowBefore - slowAfter)
	return reordered
}

// FinishEpoch closes accounting on every node.
func (c *Cluster) FinishEpoch() {
	for _, n := range c.nodes {
		n.FinishEpoch()
	}
}

// Clock returns the busiest node's virtual time plus the coordinator's
// accumulated wait overhead: shooters drive nodes in parallel, so the
// cluster finishes when its slowest member does, and every timeout or
// backoff the coordinator sat through delays completion further.
func (c *Cluster) Clock() float64 {
	var maxClock float64
	for _, n := range c.nodes {
		if t := n.Clock(); t > maxClock {
			maxClock = t
		}
	}
	return maxClock + c.overhead
}

// WorkClock returns the cluster's total virtual work: the sum of every
// node's clock plus the coordinator's accumulated wait overhead. Where
// Clock is the makespan (nodes run in parallel), WorkClock is the
// serialized cost: an op's delta is the work it cost every replica it
// touched, its read repair and forwarded writes included, where its
// result's Latency is only the critical path the client waits on.
func (c *Cluster) WorkClock() float64 {
	var sum float64
	for _, n := range c.nodes {
		sum += n.Clock()
	}
	return sum + c.overhead
}

// KeySpace returns the logical key space (shared by all nodes).
func (c *Cluster) KeySpace() int { return c.nodes[0].KeySpace() }

// Metrics aggregates node counters. Its epoch series are always empty:
// nodes keep none, and a serving request is timed by its result's
// Latency instead.
func (c *Cluster) Metrics() nosql.Metrics {
	var agg nosql.Metrics
	for _, n := range c.nodes {
		m := n.Metrics()
		agg.Reads += m.Reads
		agg.Writes += m.Writes
		agg.Deletes += m.Deletes
		agg.Scans += m.Scans
		agg.ScanRows += m.ScanRows
		agg.TombstonesEvicted += m.TombstonesEvicted
		agg.ExpiredCells += m.ExpiredCells
		agg.Flushes += m.Flushes
		agg.ForcedFlushes += m.ForcedFlushes
		agg.Compactions += m.Compactions
		agg.CompactionBytes += m.CompactionBytes
		agg.StallSeconds += m.StallSeconds
		agg.SSTables += m.SSTables
		agg.MaxSSTables += m.MaxSSTables
		agg.DiskBlockReads += m.DiskBlockReads
		agg.FileCacheHits += m.FileCacheHits
		agg.RowCacheHits += m.RowCacheHits
		agg.BloomChecks += m.BloomChecks
		agg.MemtableHits += m.MemtableHits
		agg.CompactionBacklogBytes += m.CompactionBacklogBytes
		if m.CorruptedLogRecords > 0 {
			agg.CorruptedLogRecords += m.CorruptedLogRecords
		}
		agg.Restarts += m.Restarts
		agg.ReplayedRecords += m.ReplayedRecords
		if m.VirtualSeconds > agg.VirtualSeconds {
			agg.VirtualSeconds = m.VirtualSeconds
		}
	}
	agg.VirtualSeconds += c.overhead
	return agg
}
