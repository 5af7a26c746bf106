package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/nosql"
	"rafiki/internal/workload"
)

// Metamorphic relations: two runs on one seeded configuration that
// differ in a single input whose effect on throughput has a known
// direction or size. A re-baseline may move every number but these.

// relationConfig draws seed's random key-parameter configuration.
func relationConfig(t *testing.T, seed int64) config.Config {
	t.Helper()
	keys, err := config.Cassandra().KeyParams()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := make(config.Config, len(keys))
	for _, p := range keys {
		cfg[p.Name] = p.Clamp(p.Min + rng.Float64()*(p.Max-p.Min))
	}
	return cfg
}

// relationRun drives store, preloaded, through seed's workload at read
// ratio rr and returns its throughput.
func relationRun(t *testing.T, store interface {
	workload.Store
	Preload(int)
}, rr float64, seed int64) float64 {
	t.Helper()
	store.Preload(3)
	res, err := workload.Run(store, workload.Spec{
		ReadRatio: rr, KRDMean: 2 * float64(store.KeySpace()), Ops: 20_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Throughput
}

// TestReadThroughputOrderedByConsistency: on a healthy 3-node RF=3
// cluster a read that must hear from more replicas loads more nodes, so
// read throughput is ALL <= QUORUM <= ONE on every configuration.
func TestReadThroughputOrderedByConsistency(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := relationConfig(t, seed)
		var tput []float64
		for _, cl := range []ConsistencyLevel{ConsistencyAll, ConsistencyQuorum, ConsistencyOne} {
			c, err := New(Options{Nodes: 3, ReplicationFactor: 3, Space: config.Cassandra(), Config: cfg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetReadConsistency(cl); err != nil {
				t.Fatal(err)
			}
			tput = append(tput, relationRun(t, c, 1, seed))
		}
		if tput[0] > tput[1] || tput[1] > tput[2] {
			t.Errorf("seed %d: read throughput ALL %.0f, QUORUM %.0f, ONE %.0f; want ALL <= QUORUM <= ONE", seed, tput[0], tput[1], tput[2])
		}
	}
}

// newLatencyRelationCluster builds seed's 3-node cluster at replication
// factor rf with reads and writes at level cl: per-op epochs, so each
// replica's clock advances exactly while it serves a leg, on the perfect
// network.
func newLatencyRelationCluster(t *testing.T, cfg config.Config, seed int64, rf int, cl ConsistencyLevel) *Cluster {
	t.Helper()
	c, err := New(Options{Nodes: 3, ReplicationFactor: rf, Space: config.Cassandra(), Config: cfg, Seed: seed, EpochOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(3)
	if err := c.SetReadConsistency(cl); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteConsistency(cl); err != nil {
		t.Fatal(err)
	}
	return c
}

// levels are the consistency levels in the order their latency ranks.
var levels = [3]ConsistencyLevel{ConsistencyOne, ConsistencyQuorum, ConsistencyAll}

// TestLatencyOrderedByConsistency: on a healthy RF=3 cluster a request
// completes at the slowest of the legs its level waits for, so on one
// key stream each op's latency is ONE <= QUORUM <= ALL — given that the
// levels' replicas do the same work. Writes reach every owner at every
// level, so a write stream keeps the three clusters identical op by op,
// and each level's write latency is exactly its k-th fastest leg.
// A read consults one, two or three replicas and so lets their caches
// drift apart; each read probe therefore replays the stream's writes up
// to its position on fresh clusters and then reads once.
func TestLatencyOrderedByConsistency(t *testing.T) {
	const ops, probes = 2_000, 8
	ordered := func(l [3]float64) bool { return 0 < l[0] && l[0] <= l[1] && l[1] <= l[2] }
	for seed := int64(1); seed <= 4; seed++ {
		cfg := relationConfig(t, seed)
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, ops)
		for i := range keys {
			keys[i] = uint64(rng.Intn(2_000))
		}
		var cs [3]*Cluster
		for j, cl := range levels {
			cs[j] = newLatencyRelationCluster(t, cfg, seed, 3, cl)
		}
		for i, key := range keys {
			var lat [3]float64
			for j, c := range cs {
				before := nodeClocks(c)
				lat[j] = c.WriteOp(key).Latency
				// Every node owns every key: the legs are the three
				// clock advances, and the level waits for the k-th.
				legs := nodeClocks(c)
				for n := range legs {
					legs[n] -= before[n]
				}
				slices.Sort(legs)
				if k := levels[j].replicasNeeded(3); lat[j] != legs[k-1] {
					t.Fatalf("seed %d write %d at %v: latency %v, legs %v; want ack %d", seed, i, levels[j], lat[j], legs, k)
				}
			}
			if !ordered(lat) {
				t.Fatalf("seed %d write %d: latency ONE %v, QUORUM %v, ALL %v; want 0 < ONE <= QUORUM <= ALL", seed, i, lat[0], lat[1], lat[2])
			}
		}
		for p := range probes {
			pos := p * ops / probes
			var lat [3]float64
			for j, cl := range levels {
				c := newLatencyRelationCluster(t, cfg, seed, 3, cl)
				for _, key := range keys[:pos] {
					c.WriteOp(key)
				}
				lat[j] = c.ReadOp(keys[pos]).Latency
			}
			if !ordered(lat) {
				t.Fatalf("seed %d read at %d: latency ONE %v, QUORUM %v, ALL %v; want 0 < ONE <= QUORUM <= ALL", seed, pos, lat[0], lat[1], lat[2])
			}
		}
	}
}

// TestLatencyWithinWorkClock: on the perfect network a request's legs
// run side by side, so no op's latency exceeds the work it cost the
// whole cluster (its work-clock delta), whatever the level; at RF = 1 a
// request is one leg and the two are the same number, to rounding (the
// work clock sums every node's clock).
func TestLatencyWithinWorkClock(t *testing.T) {
	const rounding = 1e-9
	for seed := int64(1); seed <= 4; seed++ {
		cfg := relationConfig(t, seed)
		for _, shape := range []struct {
			rf int
			cl ConsistencyLevel
		}{{1, ConsistencyOne}, {3, ConsistencyOne}, {3, ConsistencyQuorum}, {3, ConsistencyAll}} {
			c := newLatencyRelationCluster(t, cfg, seed, shape.rf, shape.cl)
			rng := rand.New(rand.NewSource(seed))
			for i := range 2_000 {
				key := uint64(rng.Intn(2_000))
				w0 := c.WorkClock()
				var lat float64
				if i%2 == 0 {
					lat = c.ReadOp(key).Latency
				} else {
					lat = c.WriteOp(key).Latency
				}
				work := c.WorkClock() - w0
				if lat <= 0 || lat > work*(1+rounding) || (shape.rf == 1 && lat < work*(1-rounding)) {
					t.Fatalf("seed %d RF=%d %v op %d: latency %v, work-clock delta %v", seed, shape.rf, shape.cl, i, lat, work)
				}
			}
		}
	}
}

// TestSingleNodeClusterIsBareEngine: an RF=1 one-node cluster on the
// default zero-latency network runs every op on one engine built as a
// bare engine would be, so it reports that engine's throughput to
// within 0.5%. A coordinator and message layer that charge no virtual
// time of their own make the two equal.
func TestSingleNodeClusterIsBareEngine(t *testing.T) {
	const tolerance = 0.005
	for seed := int64(1); seed <= 4; seed++ {
		cfg := relationConfig(t, seed)
		for _, rr := range []float64{0.1, 0.5, 0.9} {
			c, err := New(Options{Nodes: 1, ReplicationFactor: 1, Space: config.Cassandra(), Config: cfg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			e, err := nosql.New(nosql.Options{Space: config.Cassandra(), Config: cfg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got, want := relationRun(t, c, rr, seed), relationRun(t, e, rr, seed)
			if math.Abs(got/want-1) > tolerance {
				t.Errorf("seed %d RR=%v: one-node cluster %.0f ops/s, bare engine %.0f (%+.2f%%, tolerance %.1f%%)",
					seed, rr, got, want, 100*(got/want-1), 100*tolerance)
			}
		}
	}
}
