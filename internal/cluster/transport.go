package cluster

import (
	"rafiki/internal/netsim"
	"rafiki/internal/ring"
)

// The cluster's wire format and the coordinator's side of it. Every
// replica interaction is one message struct travelling as a pointer to
// a slot its sender owns, so the network's `any` payload never boxes.
//
// Slot ownership. A slot is written only by its owner, whole, just
// before sending it: the coordinator owns Cluster.req, each replica owns
// its reply. Delivery is inline, so a receiver reads the sender's slot
// while the sender is still inside Send; a receiver never writes it, and
// never keeps the pointer. The one place a message outlives its delivery is
// the coordinator's inbox, and coordHandler copies it there by value:
// the second copy of a duplicated request makes the replica overwrite
// its reply slot while the first reply is still waiting in the inbox.

// msgKind tags a message. Each coordinator request is immediately
// followed by the kind that answers it (see reply).
type msgKind uint8

const (
	// msgRead asks a replica to serve a data read of key; msgReadResp
	// carries its versioned cell (has: it holds versioned state at all).
	msgRead msgKind = iota + 1
	msgReadResp
	// msgWrite applies one versioned mutation c to key (write or
	// tombstone); msgWriteAck confirms it was applied.
	msgWrite
	msgWriteAck
	// msgState asks for a key's state without data-read cost (repair
	// introspection); msgStateResp answers with engine-level presence
	// (has) and liveness (alive) plus the versioned cell when one exists
	// (hasVer).
	msgState
	msgStateResp
	// msgScan asks for a range scan of up to n rows from key;
	// msgScanResp carries the live row count in n.
	msgScan
	msgScanResp
	// msgStreamOpen asks the src to freeze the sorted key list of range
	// iv under stream id key; msgStreamOpenResp answers with its length
	// in n. (See rebalance.go for the protocol. The coordinator drives
	// every step; data legs travel src -> dest directly, acks come back
	// to the coordinator — all over the same lossy network as serving
	// traffic.)
	msgStreamOpen
	msgStreamOpenResp
	// msgStreamPull asks the src to forward up to m frozen keys of
	// stream key, from slot n, to dest; the exchange is answered by
	// dest's msgStreamApplied (n frozen slots consumed, m cells applied).
	msgStreamPull
	msgStreamApplied
	// msgDelta asks the src to re-push the whole range iv to dest — the
	// final handoff closing the gap between the frozen snapshot and the
	// src's live state; dest's msgDeltaAck reports the cells pushed in n.
	msgDelta
	msgDeltaAck
	// msgStreamChunk (n frozen slots covered; items may be fewer when
	// keys vanished since the freeze) and msgDeltaPush are the src ->
	// dest data legs of a pull and a delta.
	msgStreamChunk
	msgDeltaPush
	// msgStreamGone answers a pull when the src no longer knows the
	// stream (it crash-restarted since the open): the stream must be
	// re-established.
	msgStreamGone
	// msgStreamClose releases the src's frozen list (fire-and-forget).
	msgStreamClose
)

// reply is the kind that answers coordinator request k.
func (k msgKind) reply() msgKind { return k + 1 }

// streamItem is one key's versioned state in flight.
type streamItem struct {
	key uint64
	c   cell
}

// message is the one wire format. id matches a reply to its exchange, so
// a duplicated or stale response can never satisfy the wrong one; the
// other fields mean what the kind says they mean.
type message struct {
	kind msgKind
	// has, alive, hasVer are the reply flags of reads and state probes.
	has, alive, hasVer bool
	id                 uint64
	// key is the key operated on, a scan's start, or a stream id.
	key uint64
	c   cell
	// n and m are the kind's counts (limit, rows, offset, total, ...).
	n, m int
	// dest, iv and items belong to the rebalance stream. items aliases
	// the sending replica's scratch: read it during the delivery only.
	dest  int
	iv    ring.Interval
	items []streamItem
}

// inboxEntry is one response delivered to the coordinator.
type inboxEntry struct {
	from int
	at   float64
	msg  message
}

// exchange is one synchronous request/response over the simulated
// network: req goes to node to, the network delivers it (or drops,
// duplicates, delays it), the node handler replies — itself, or via
// replyFrom when the request makes to forward data there — and the
// response, if it survives the return path, lands in the coordinator's
// inbox. The round-trip latency is charged to the coordinator's wait
// overhead; a lost exchange charges the op timeout, which is how a real
// coordinator discovers loss, and counts against to's circuit breaker.
// A pull may also be answered by to itself with msgStreamGone.
//
// It also returns the leg's own virtual time, the span a request that
// sent it waits on: the round trip plus node to's clock advance while it
// served the message, or the op timeout when the exchange was lost.
//
//rafiki:hot
func (c *Cluster) exchange(to, replyFrom int, req message) (message, float64, bool) {
	c.reqID++
	req.id = c.reqID
	c.req = req
	c.inbox = c.inbox[:0]
	sent := c.Clock()
	busy := c.nodes[to].Clock()
	c.net.Send(netsim.Coordinator, to, &c.req, sent)
	busy = c.nodes[to].Clock() - busy
	want := req.kind.reply()
	for i := range c.inbox {
		e := &c.inbox[i]
		if e.msg.id != req.id {
			continue
		}
		if (e.msg.kind == want && e.from == replyFrom) || (e.msg.kind == msgStreamGone && e.from == to) {
			c.chargeWait(e.at - sent)
			c.breakerSuccess(to)
			return e.msg, e.at - sent + busy, true
		}
	}
	// The request or the response was lost: the coordinator sat out its
	// per-op patience learning that. Loss-driven timeouts have their own
	// counter (cluster.rpc_lost_timeouts) so a partitioned link is
	// distinguishable from a straggling replica (cluster.op_timeouts).
	c.stats.RPCLostTimeouts++
	c.chargeWait(c.res.OpTimeout)
	c.breakerFailure(to)
	return message{}, c.res.OpTimeout, false
}

// closeStream releases src's frozen stream list. Fire-and-forget: a
// lost close only strands a few kilobytes of simulated RAM, so no one
// waits for it.
func (c *Cluster) closeStream(src int, stream uint64) {
	c.req = message{kind: msgStreamClose, key: stream}
	c.net.Send(netsim.Coordinator, src, &c.req, c.Clock())
}

// coordHandler is the coordinator-side delivery handler: responses land
// in the inbox, copied out of the replica's slot, for the in-flight
// exchange to collect.
//
//rafiki:hot
func (c *Cluster) coordHandler(from int, payload any, at float64) {
	c.inbox = append(c.inbox, inboxEntry{from: from, at: at, msg: *payload.(*message)})
}
