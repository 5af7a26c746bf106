package main

import (
	"math/rand"
	"time"

	"rafiki/internal/cluster"
	"rafiki/internal/frontdoor"
	"rafiki/internal/netsim"
	"rafiki/internal/nosql"
	"rafiki/internal/par"
	"rafiki/internal/ring"
)

// The serving stack cannot be spanned from outside while it runs:
// frontdoor takes a concrete *cluster.Cluster and the cluster owns its
// network. Its layers are therefore separated by a ladder over one
// seeded request stream — replica engine ops driven directly, then
// Ring.OwnersAt, then netsim.Send with an echo handler, then the
// coordinator's ops at ONE/QUORUM/ALL and on 3/16/64 nodes, then
// FrontDoor.Run — and a layer's own overhead is its rung minus the rung
// below.
const (
	ladderOps     = 60_000 // requests in the stream
	ladderScanOps = 3_000
	ladderBlock   = 1024 // requests per span where one request is too short to time
	clockCalls    = 20_000
	queueOps      = 200_000
)

// ladderReq is one request of the probe stream.
type ladderReq struct {
	key    uint64
	isRead bool
}

// ladderStream draws the probe stream from the same key pools the
// workload's tenants use.
func ladderStream(seed int64, sc serveCase, n int) []ladderReq {
	rng := rand.New(rand.NewSource(par.DeriveSeed(seed, 900)))
	pool, readRatio := steadyTenants*steadyKeys, 0.5
	if sc.chaos {
		pool, readRatio = chaosTenants*chaosKeys, 0.58
	}
	out := make([]ladderReq, n)
	for i := range out {
		out[i] = ladderReq{key: uint64(rng.Intn(pool)), isRead: rng.Float64() < readRatio}
	}
	return out
}

// perRequest runs fn once per request under its own leaf span; the
// request index is the span's req, shared by all rungs.
func perRequest(tr *tracer, name string, reqs []ladderReq, fn func(ladderReq)) {
	parent := tr.begin(0, "rung."+name, 0)
	for i, q := range reqs {
		t := tr.now()
		fn(q)
		tr.leaf(parent, name, int64(i), t, tr.now())
	}
	tr.end(parent)
}

// perBlock runs fn once per request and spans blocks of ladderBlock
// requests; it returns the median ns per request over the blocks.
func perBlock(tr *tracer, name string, reqs []ladderReq, fn func(ladderReq)) float64 {
	parent := tr.begin(0, "rung."+name, 0)
	var perOp []float64
	for lo := 0; lo < len(reqs); lo += ladderBlock {
		hi := lo + ladderBlock
		if hi > len(reqs) {
			hi = len(reqs)
		}
		t := tr.now()
		for _, q := range reqs[lo:hi] {
			fn(q)
		}
		end := tr.now()
		tr.leaf(parent, name, int64(lo), t, end)
		perOp = append(perOp, float64(end-t)/float64(hi-lo))
	}
	tr.end(parent)
	return median(perOp)
}

func p50(tr *tracer, name string) float64 { return quantile(tr.durations(name), 0.5) }

// serveLayerMetrics runs the ladder and fills the ring, netsim, cluster,
// frontdoor and nosql rows; run is the traced FrontDoor.Run.
func serveLayerMetrics(r *runResult, o runOpts, sc serveCase, tr *tracer, run serveRun) error {
	res := run.res
	frontdoorCounters(r, res)
	clusterCounters(r, run.stats, run.net, res.Completed)
	nosqlCounters(r, run.cl.Metrics(), nosql.Metrics{})
	r.set("ring.moved_frac", run.cl.MovedTokenFraction())
	r.set("frontdoor.req_ns", run.wallNs/float64(res.Arrivals))
	r.set("frontdoor.allocs_per_req", float64(run.allocs)/float64(res.Arrivals))

	n := o.scaleInt(ladderOps, 2_000)
	reqs := ladderStream(o.seed, sc, n)
	var readShare float64
	for _, q := range reqs {
		if q.isRead {
			readShare++
		}
	}
	readShare /= float64(n)

	// Rung 1: the replica engine ops a QUORUM request costs, driven
	// directly on the owners' engines: two reads, or RF writes.
	base, err := newServeCluster(o.seed, sc.chaos, serveNodes)
	if err != nil {
		return err
	}
	rg := base.Ring()
	owners := make([]int, 0, serveRF)
	perRequest(tr, "cluster.replica", reqs, func(q ladderReq) {
		owners = rg.OwnersAt(owners[:0], ring.KeyPos(q.key), serveRF)
		if q.isRead {
			base.Engine(owners[0]).Read(q.key)
			base.Engine(owners[1]).Read(q.key)
			return
		}
		for _, i := range owners {
			base.Engine(i).Write(q.key)
		}
	})
	replicaNs := p50(tr, "cluster.replica")
	r.set("cluster.replica_ns", replicaNs)

	// Rung 2: ownership lookup alone.
	ringNs := perBlock(tr, "ring.owners", reqs, func(q ladderReq) {
		owners = rg.OwnersAt(owners[:0], ring.KeyPos(q.key), serveRF)
	})
	r.set("ring.owners_ns", ringNs)

	// Rung 3: one message and its echo through a network shaped like
	// the cluster's.
	sendNs, err := netsimRung(r, o, sc, tr, reqs)
	if err != nil {
		return err
	}

	// Rung 4: the coordinator at each consistency level, 16 nodes.
	cl, err := newServeCluster(o.seed, sc.chaos, serveNodes)
	if err != nil {
		return err
	}
	levels := []struct {
		name string
		cl   cluster.ConsistencyLevel
	}{{"one", cluster.ConsistencyOne}, {"quorum", cluster.ConsistencyQuorum}, {"all", cluster.ConsistencyAll}}
	for _, lv := range levels {
		if err := cl.SetReadConsistency(lv.cl); err != nil {
			return err
		}
		if err := cl.SetWriteConsistency(lv.cl); err != nil {
			return err
		}
		parent := tr.begin(0, "rung.cluster."+lv.name, 0)
		for i, q := range reqs {
			t := tr.now()
			name := "cluster.write_" + lv.name
			if q.isRead {
				cl.ReadOp(q.key)
				name = "cluster.read_" + lv.name
			} else {
				cl.WriteOp(q.key)
			}
			tr.leaf(parent, name, int64(i), t, tr.now())
		}
		tr.end(parent)
		r.set("cluster.read_"+lv.name+"_ns", p50(tr, "cluster.read_"+lv.name))
		r.set("cluster.write_"+lv.name+"_ns", p50(tr, "cluster.write_"+lv.name))
	}
	if err := cl.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		return err
	}
	if err := cl.SetWriteConsistency(cluster.ConsistencyQuorum); err != nil {
		return err
	}
	scans := reqs
	if m := o.scaleInt(ladderScanOps, 200); m < len(scans) {
		scans = scans[:m]
	}
	perRequest(tr, "cluster.scan_quorum", scans, func(q ladderReq) { cl.ScanOp(q.key, 64) })
	r.set("cluster.scan_quorum_ns", p50(tr, "cluster.scan_quorum"))

	// Allocations and messages per QUORUM op, on a block without spans
	// (recording spans allocates).
	net0, m0 := cl.Net().Stats(), readMem()
	for _, q := range reqs {
		issue(cl, q)
	}
	m1, net1 := readMem(), cl.Net().Stats()
	r.set("cluster.allocs_per_op", float64(m1.mallocs-m0.mallocs)/float64(n))
	r.set("cluster.bytes_per_op", float64(m1.bytes-m0.bytes)/float64(n))
	msgsPerOp := float64(net1.Sent-net0.Sent) / float64(n)

	quorumNs := readShare*p50(tr, "cluster.read_quorum") + (1-readShare)*p50(tr, "cluster.write_quorum")
	r.set("cluster.own_ns", quorumNs-replicaNs-ringNs-msgsPerOp*sendNs)
	if replicaNs > 0 {
		r.set("cluster.own_ratio", quorumNs/replicaNs)
	}
	r.set("frontdoor.own_ns", run.wallNs/float64(res.Arrivals)-quorumNs*float64(res.Completed)/float64(res.Arrivals))
	r.Facts["ladder_requests"] = float64(n)
	r.Facts["ladder_msgs_per_quorum_op"] = msgsPerOp

	// Clock and WorkClock walk every node; the front door calls
	// WorkClock twice per request and the coordinator Clock per RPC.
	start := time.Now()
	for i := 0; i < clockCalls; i++ {
		clockSink += cl.Clock()
	}
	r.set("cluster.clock_ns", float64(time.Since(start).Nanoseconds())/clockCalls)
	start = time.Now()
	for i := 0; i < clockCalls; i++ {
		clockSink += cl.WorkClock()
	}
	r.set("cluster.workclock_ns", float64(time.Since(start).Nanoseconds())/clockCalls)

	// Rung 4 on 3 and 64 nodes: the op's cost should not grow with the
	// cluster, and where it does the O(nodes) clock walks show.
	for _, size := range []struct {
		nodes int
		name  string
	}{{3, "cluster.quorum_ns_n3"}, {64, "cluster.quorum_ns_n64"}} {
		c, err := newServeCluster(o.seed, sc.chaos, size.nodes)
		if err != nil {
			return err
		}
		r.set(size.name, perBlock(tr, size.name, reqs, func(q ladderReq) { issue(c, q) }))
	}

	// A join on the aged 16-node cluster, streamed to completion.
	id := tr.begin(0, "cluster.add_node", 0)
	start = time.Now()
	if _, err := cl.AddNode(); err != nil {
		return err
	}
	cl.DrainRebalance(1 << 20)
	r.set("cluster.add_node_ms", float64(time.Since(start).Nanoseconds())/1e6)
	tr.end(id)
	r.check("probe_join_quiesced", cl.PendingRanges() == 0, "%d ranges pending after the probe join", cl.PendingRanges())

	// The admission queue alone: Offer plus Pop, rotating tenants.
	q, err := frontdoor.NewAdmissionQueue(steadyQueueCap, 0)
	if err != nil {
		return err
	}
	ops := o.scaleInt(queueOps, 5_000)
	start = time.Now()
	for i := 0; i < ops; i++ {
		q.Offer(frontdoor.Request{Tenant: i % 2048, Seq: uint64(i)})
		if i%4 == 3 {
			for j := 0; j < 4; j++ {
				q.Pop()
			}
		}
	}
	r.set("frontdoor.queue_ns", float64(time.Since(start).Nanoseconds())/float64(ops))
	return nil
}

// issue sends one request of the stream to the coordinator.
func issue(c *cluster.Cluster, q ladderReq) {
	if q.isRead {
		c.ReadOp(q.key)
	} else {
		c.WriteOp(q.key)
	}
}

// clockSink keeps the timed clock reads from being optimised away.
var clockSink float64

// netsimRung sends one message per request from the coordinator to a
// node that echoes it back, on a standalone network with the workload's
// latency settings, and returns the median ns per message.
func netsimRung(r *runResult, o runOpts, sc serveCase, tr *tracer, reqs []ladderReq) (float64, error) {
	opts := netsim.Options{Nodes: serveNodes, Seed: o.seed}
	if sc.chaos {
		opts.BaseLatency, opts.Jitter = chaosNetBase, chaosNetJitter
	}
	nw, err := netsim.New(opts)
	if err != nil {
		return 0, err
	}
	for ep := 0; ep < serveNodes; ep++ {
		ep := ep
		if err := nw.SetHandler(ep, func(from int, payload any, at float64) {
			nw.Send(ep, from, payload, at)
		}); err != nil {
			return 0, err
		}
	}
	if err := nw.SetHandler(netsim.Coordinator, func(int, any, float64) {}); err != nil {
		return 0, err
	}
	now := 0.0
	m0 := readMem()
	perReq := perBlock(tr, "netsim.send", reqs, func(q ladderReq) {
		now += 1e-6
		nw.Send(netsim.Coordinator, int(q.key%serveNodes), q, now)
	})
	m1 := readMem()
	st := nw.Stats()
	msgs := float64(st.Sent)
	r.check("netsim_echo_delivered", st.Delivered == st.Sent && st.Sent == uint64(2*len(reqs)),
		"sent %d, delivered %d, want %d each", st.Sent, st.Delivered, 2*len(reqs))
	sendNs := perReq / 2 // request plus echo
	r.set("netsim.send_ns", sendNs)
	r.set("netsim.allocs_per_send", float64(m1.mallocs-m0.mallocs)/msgs)
	return sendNs, nil
}
