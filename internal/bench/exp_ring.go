package bench

import (
	"fmt"
	"math/rand"

	"rafiki/internal/cluster"
	"rafiki/internal/config"
)

// Ring experiment: drive token rings of increasing size through an
// elastic join and a decommission under QUORUM load, and measure what
// the rebalance costs — how much of the token circle moved (the
// minimal-movement property), how much state streamed, and whether the
// serving path stayed available while ranges were mid-flight.

// streamCellBytes is the wire-size estimate for one streamed key
// state: 8-byte key, 8-byte version, 1-byte tombstone flag.
const streamCellBytes = 17

// ringPhase measures one topology change under load.
type ringPhase struct {
	moved      float64 // token-circle fraction scheduled to move
	serveOps   int     // foreground ops issued while ranges were pending
	drainPumps int     // idle pump steps needed after the load window
	pending    int     // ranges still pending after the drain (0 = drained)
	window     float64 // virtual seconds from change to quiescence
	streams    uint64  // completed streams
	severed    uint64
	cells      uint64 // key states streamed (catch-up + delta)
	forwarded  uint64 // live writes forwarded to catching-up owners
	unavail    uint64 // unavailable reads+writes during the window
}

// ringRun is one ring scale's full measurement.
type ringRun struct {
	nodes       int
	join, leave ringPhase
	readable    bool // every acked write readable at QUORUM at the end
}

// runRingScale builds an n-node RF=3 ring, drives it through a join
// and a decommission under mixed load, and verifies every acked write
// is still readable at QUORUM once the dust settles.
func runRingScale(env Env, nodes int, seed int64) (ringRun, error) {
	c, err := cluster.New(cluster.Options{
		Nodes:             nodes,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              env.Seed ^ seed,
		EpochOps:          128,
		NetBaseLatency:    1e-7,
		NetJitter:         5e-8,
	})
	if err != nil {
		return ringRun{}, err
	}
	c.Preload(env.PreloadVersions)
	if err := c.SetReadConsistency(cluster.ConsistencyQuorum); err != nil {
		return ringRun{}, err
	}
	if err := c.SetWriteConsistency(cluster.ConsistencyQuorum); err != nil {
		return ringRun{}, err
	}

	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 3037000493))
	keys := uint64(c.KeySpace())
	acked := make(map[uint64]int64)
	serve := func() {
		key := uint64(rng.Intn(int(keys)))
		if rng.Float64() < 0.5 {
			if res := c.WriteOp(key); res.OK {
				acked[key] = res.Version
			}
		} else {
			c.ReadOp(key)
		}
	}

	// Warm the versioned state so streams have something to move.
	warm := max(env.SampleOps/50, 1000)
	for i := 0; i < warm; i++ {
		serve()
	}

	phaseOps := max(env.SampleOps/25, 2000)
	phase := func(change func() error) (ringPhase, error) {
		pre := c.Stats()
		preMoved := c.MovedTokenFraction()
		start := c.Clock()
		if err := change(); err != nil {
			return ringPhase{}, err
		}
		var ph ringPhase
		ph.moved = c.MovedTokenFraction() - preMoved
		// Serve through the rebalance: every op pumps one stream step,
		// so this is the contended regime the pending-range protocol
		// exists for.
		for ph.serveOps < phaseOps && c.PendingRanges() > 0 {
			serve()
			ph.serveOps++
		}
		// Whatever the load window did not finish drains idle.
		ph.drainPumps = c.DrainRebalance(1_000_000)
		ph.pending = c.PendingRanges()
		ph.window = c.Clock() - start
		post := c.Stats()
		ph.streams = post.StreamsCompleted - pre.StreamsCompleted
		ph.severed = post.StreamsSevered - pre.StreamsSevered
		ph.cells = post.StreamedCells - pre.StreamedCells
		ph.forwarded = post.ForwardedWrites - pre.ForwardedWrites
		ph.unavail = post.UnavailableReads + post.UnavailableWrites -
			pre.UnavailableReads - pre.UnavailableWrites
		return ph, nil
	}

	run := ringRun{nodes: nodes}
	if run.join, err = phase(func() error { _, aerr := c.AddNode(); return aerr }); err != nil {
		return ringRun{}, fmt.Errorf("join: %w", err)
	}
	if run.leave, err = phase(func() error { return c.DecommissionNode(1) }); err != nil {
		return ringRun{}, fmt.Errorf("leave: %w", err)
	}

	// The availability contract: every acked write is readable at
	// QUORUM at (at least) its acked version after both rebalances.
	run.readable = true
	for key, ver := range acked {
		res := c.ReadOp(key)
		if !res.OK || res.Version < ver {
			run.readable = false
			break
		}
	}
	return run, nil
}

// Ring is the elastic-topology experiment: 16 to 64 node rings each
// survive a join and a decommission under QUORUM load. Its gates (for
// `-only ring`) fail if any acked write becomes unreadable or a
// rebalance fails to drain.
func Ring(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	const seed = 190_000
	scales := []int{16, 32, 64}

	t := Table{
		Title: "Elastic rebalance under QUORUM load (RF=3, join then decommission per scale)",
		Header: []string{"nodes", "event", "moved", "streams", "severed", "cells", "~KiB",
			"forwarded", "unavail ops", "serve ops", "drain pumps", "window (vms)"},
	}
	var unreadable, undrained []string
	for _, n := range scales {
		r, err := runRingScale(env, n, seed+int64(n))
		if err != nil {
			return Report{}, fmt.Errorf("bench: ring %d nodes: %w", n, err)
		}
		if !r.readable {
			unreadable = append(unreadable, fmt.Sprint(n))
		}
		for _, ev := range []struct {
			name string
			ph   ringPhase
		}{{"join", r.join}, {"leave", r.leave}} {
			if ev.ph.pending != 0 {
				undrained = append(undrained, fmt.Sprintf("%d-node %s (%d ranges)", n, ev.name, ev.ph.pending))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(r.nodes), ev.name, pct(ev.ph.moved),
				fmt.Sprint(ev.ph.streams), fmt.Sprint(ev.ph.severed),
				fmt.Sprint(ev.ph.cells), f1(float64(ev.ph.cells) * streamCellBytes / 1024),
				fmt.Sprint(ev.ph.forwarded), fmt.Sprint(ev.ph.unavail),
				fmt.Sprint(ev.ph.serveOps), fmt.Sprint(ev.ph.drainPumps),
				f2(ev.ph.window * 1000),
			})
		}
	}

	return Report{
		ID:     "ring",
		Title:  "Token-ring elasticity: join and decommission under load",
		Tables: []Table{t},
		Notes: []string{
			"moved is the token-circle fraction scheduled to change owners: consistent hashing keeps it near RF/nodes per event (minimal movement), so it shrinks as the ring grows",
			"every stream leg — open, chunk, delta handoff — crosses the simulated network and competes with foreground load; one pump step runs per serving op",
			fmt.Sprintf("~KiB estimates stream volume at %d bytes per key state (8B key + 8B version + tombstone flag)", streamCellBytes),
		},
		Claims: []Claim{
			gate(len(undrained) == 0, "every rebalance drains; still pending: %v", undrained),
			gate(len(unreadable) == 0, "every acked write stays readable at QUORUM after the join and the decommission; unreadable at nodes: %v", unreadable),
		},
	}, nil
}
