package cluster

import (
	"math"
	"math/rand"
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
