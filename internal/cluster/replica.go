package cluster

import (
	"math"
	"sort"

	"rafiki/internal/netsim"
	"rafiki/internal/nosql"
	"rafiki/internal/ring"
)

// This file is the cluster's netsim delivery layer: the node-side
// message handler and the replica state it drives. It is the ONLY
// place cluster code may call an engine's data-path methods
// (Read/Write/Delete) directly — everywhere else replica traffic must
// travel as messages through the network, which is machine-checked by
// rafikilint's netbypass analyzer.

// cell is one key's replicated register state in one word: the
// coordinator-issued version that last wrote it, shifted left one bit,
// and in the low bit whether that write was a tombstone. Versions are
// >= 0 — coordinator versions start at 1 and repair writes preloaded
// state at the floor 0 — so the top bits are spare (see undoRec).
type cell int64

func newCell(ver int64, tomb bool) cell {
	c := cell(ver << 1)
	if tomb {
		c |= 1
	}
	return c
}

func (c cell) ver() int64 { return int64(c >> 1) }
func (c cell) tomb() bool { return c&1 != 0 }

// undoWindow bounds each replica's corruptible tail: applies older
// than the window count as flushed (durable) and can no longer be
// lost to a torn commit log.
const undoWindow = 8192

// undoRec is one entry of a replica's corruptible tail: enough to
// roll the key back (prev, when had) and to replay the apply (next). A
// node keeps undoWindow of them, so the flags ride in the cells' spare
// top bit — had in prev's, torn in next's — for 24 bytes a record. had
// needs its own bit: a key repaired at the floor holds the zero cell.
type undoRec struct {
	key        uint64
	prev, next cell
}

const undoFlag cell = 1 << 62

// newUndoRec records that key went from prev (meaningful when had) to next.
//
//rafiki:hot
func newUndoRec(key uint64, prev cell, had bool, next cell) undoRec {
	if had {
		prev |= undoFlag
	}
	return undoRec{key: key, prev: prev, next: next}
}

func (u undoRec) had() bool      { return u.prev&undoFlag != 0 }
func (u undoRec) torn() bool     { return u.next&undoFlag != 0 }
func (u *undoRec) tear()         { u.next |= undoFlag }
func (u undoRec) prevCell() cell { return u.prev &^ undoFlag }
func (u undoRec) nextCell() cell { return u.next &^ undoFlag }

// replica is one node's message endpoint: the storage engine plus the
// versioned register state consistency checking observes. Version
// state mirrors the engine's durability model — recent applies live
// in a corruptible tail until the window slides past them, and a
// crash-restart after log corruption loses the torn records.
type replica struct {
	eng  *nosql.Engine
	cur  map[uint64]cell
	undo []undoRec
	torn int
	// streams holds the frozen sorted key lists of rebalance streams
	// this replica is the source of, by stream id. The state is RAM
	// only: a crash-restart wipes it, and a later pull answers
	// msgStreamGone — which is how the coordinator learns it must
	// re-establish the stream.
	streams map[uint64][]uint64
	// reply is the slot every message this replica sends travels in (see
	// transport.go for the ownership rule); items is the scratch a
	// stream chunk or delta push collects its cells into.
	reply message
	items []streamItem
}

func newReplica(eng *nosql.Engine) *replica {
	return &replica{eng: eng, cur: make(map[uint64]cell)}
}

// apply performs one delivered mutation. Engine work is charged for
// every delivered copy (a duplicate costs what a write costs); the
// versioned state is last-write-wins, so stale and duplicated copies
// cannot regress it.
//
//rafiki:hot
func (r *replica) apply(key uint64, c cell) {
	if c.tomb() {
		r.eng.Delete(key)
	} else {
		r.eng.Write(key)
	}
	old, had := r.cur[key]
	if had && old.ver() >= c.ver() {
		return
	}
	r.pushUndo(newUndoRec(key, old, had, c))
	r.cur[key] = c
}

// read serves one delivered data read and returns the versioned state.
//
//rafiki:hot
func (r *replica) read(key uint64) (cell, bool) {
	r.eng.Read(key)
	c, has := r.cur[key]
	return c, has
}

// scan serves one delivered range scan: the engine walks its merged
// iterator (memtable plus all SSTables, honoring tombstones and TTL
// expiry) and the replica reports the live rows it found.
//
//rafiki:hot
func (r *replica) scan(start uint64, limit int) int {
	return r.eng.Scan(start, limit)
}

// rangeKeys collects the replica's versioned keys whose ring position
// falls in iv, sorted ascending so the frozen stream list is
// deterministic regardless of map iteration order.
func (r *replica) rangeKeys(iv ring.Interval) []uint64 {
	var keys []uint64
	for k := range r.cur {
		if iv.Contains(ring.KeyPos(k)) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// pushUndo appends one tail record, sliding the durability window
// forward when it overflows (the oldest half becomes flushed state):
// the survivors slide down in place. The backing grows by doubling up
// to the window plus the one record that overflows it, and no further.
//
//rafiki:hot
func (r *replica) pushUndo(u undoRec) {
	if len(r.undo) == cap(r.undo) {
		r.undo = append(make([]undoRec, 0, min(max(2*cap(r.undo), 64), undoWindow+1)), r.undo...)
	}
	r.undo = append(r.undo, u)
	if len(r.undo) > undoWindow {
		keep := len(r.undo) - undoWindow/2
		r.undo = r.undo[:copy(r.undo, r.undo[keep:])]
	}
}

// corruptTail marks the newest fraction of the replica's untorn tail
// records as lost; like the engine's commit log, the damage only
// surfaces at the next restart.
func (r *replica) corruptTail(fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction > 1 {
		fraction = 1
	}
	pending := 0
	for _, u := range r.undo {
		if !u.torn() {
			pending++
		}
	}
	n := int(math.Ceil(fraction * float64(pending)))
	for i := len(r.undo) - 1; i >= 0 && n > 0; i-- {
		if !r.undo[i].torn() {
			r.undo[i].tear()
			r.torn++
			n--
		}
	}
}

// restart replays the replica's tail the way crash recovery replays a
// commit log: every tail record is rolled back (RAM state gone), then
// the surviving — untorn — records re-apply in order. The survivors
// are durable afterwards.
func (r *replica) restart() {
	for i := len(r.undo) - 1; i >= 0; i-- {
		u := r.undo[i]
		if u.had() {
			r.cur[u.key] = u.prevCell()
		} else {
			delete(r.cur, u.key)
		}
	}
	for _, u := range r.undo {
		if u.torn() {
			continue
		}
		r.cur[u.key] = u.nextCell()
	}
	r.undo = r.undo[:0]
	r.torn = 0
	// Frozen stream lists are RAM state: gone after a crash. Pulls
	// against them will answer msgStreamGone.
	r.streams = nil
}

// handleAtNode is the node-side delivery handler: it executes the
// request against the replica and sends the response back through the
// network (which may drop, duplicate, or delay it like any message).
// The request is read in place from the sender's slot; the response
// overwrites this replica's own.
//
//rafiki:hot
func (c *Cluster) handleAtNode(node int, from int, payload any, at float64) {
	r := c.reps[node]
	m := payload.(*message)
	to := from
	switch m.kind {
	case msgRead:
		cl, has := r.read(m.key)
		r.reply = message{kind: msgReadResp, id: m.id, key: m.key, c: cl, has: has}
	case msgWrite:
		r.apply(m.key, m.c)
		r.reply = message{kind: msgWriteAck, id: m.id, key: m.key, c: m.c}
	case msgScan:
		r.reply = message{kind: msgScanResp, id: m.id, key: m.key, n: r.scan(m.key, m.n)}
	case msgState:
		cl, hasVer := r.cur[m.key]
		r.reply = message{
			kind: msgStateResp, id: m.id, key: m.key,
			has: r.eng.HasCell(m.key), alive: r.eng.Alive(m.key),
			c: cl, hasVer: hasVer,
		}
	case msgStreamOpen:
		if r.streams == nil {
			//lint:allow hotalloc a replica's first stream open since its last restart; rebalance only
			r.streams = make(map[uint64][]uint64)
		}
		keys := r.rangeKeys(m.iv) //lint:allow hotalloc freezing a moving range's key list happens once per stream; rebalance only
		r.streams[m.key] = keys
		r.reply = message{kind: msgStreamOpenResp, id: m.id, key: m.key, n: len(keys)}
	case msgStreamPull:
		keys, ok := r.streams[m.key]
		if !ok {
			r.reply = message{kind: msgStreamGone, id: m.id, key: m.key}
			to = netsim.Coordinator
			break
		}
		lo := min(m.n, len(keys))
		hi := min(lo+m.m, len(keys))
		r.collect(keys[lo:hi])
		r.reply = message{kind: msgStreamChunk, id: m.id, key: m.key, n: hi - lo, items: r.items}
		to = m.dest
	case msgStreamChunk:
		for _, it := range m.items {
			r.apply(it.key, it.c)
		}
		r.reply = message{kind: msgStreamApplied, id: m.id, key: m.key, n: m.n, m: len(m.items)}
		to = netsim.Coordinator
	case msgDelta:
		r.collect(r.rangeKeys(m.iv)) //lint:allow hotalloc the final handoff re-lists the range once per stream; rebalance only
		r.reply = message{kind: msgDeltaPush, id: m.id, items: r.items}
		to = m.dest
	case msgDeltaPush:
		for _, it := range m.items {
			r.apply(it.key, it.c)
		}
		r.reply = message{kind: msgDeltaAck, id: m.id, n: len(m.items)}
		to = netsim.Coordinator
	case msgStreamClose:
		delete(r.streams, m.key)
		return
	default:
		return
	}
	c.net.Send(node, to, &r.reply, at)
}

// collect reads keys' versioned cells into r.items, charging each a
// data read; keys that no longer hold versioned state are skipped.
// Hot while a rebalance runs: every serving op then pumps one pull.
//
//rafiki:hot
func (r *replica) collect(keys []uint64) {
	r.items = r.items[:0]
	for _, key := range keys {
		if cl, has := r.read(key); has {
			r.items = append(r.items, streamItem{key: key, c: cl})
		}
	}
}

// wireHandlers registers the cluster's endpoints on its network.
func (c *Cluster) wireHandlers() error {
	for i := range c.reps {
		i := i
		if err := c.net.SetHandler(i, func(from int, payload any, at float64) {
			c.handleAtNode(i, from, payload, at)
		}); err != nil {
			return err
		}
	}
	return c.net.SetHandler(netsim.Coordinator, c.coordHandler)
}
