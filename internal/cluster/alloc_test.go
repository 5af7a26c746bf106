package cluster

import (
	"math/rand"
	"runtime"
	"testing"

	"rafiki/internal/config"
)

// newServeCluster is the serving-path shape the guards and benchmarks
// share: 16 nodes, RF 3, QUORUM reads and writes, a perfect network,
// per-op epochs, the dataset preloaded.
func newServeCluster(tb testing.TB) *Cluster {
	tb.Helper()
	c, err := New(Options{
		Nodes:             16,
		ReplicationFactor: 3,
		Space:             config.Cassandra(),
		Seed:              7,
		EpochOps:          1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.SetReadConsistency(ConsistencyQuorum); err != nil {
		tb.Fatal(err)
	}
	if err := c.SetWriteConsistency(ConsistencyQuorum); err != nil {
		tb.Fatal(err)
	}
	c.Preload(1)
	return c
}

// quorumOps issues n coordinator ops, reads and writes alternating, on
// keys drawn from a 32k pool.
func quorumOps(c *Cluster, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(32_000))
		if i%2 == 0 {
			c.ReadOp(key)
		} else {
			c.WriteOp(key)
		}
	}
}

// TestServeAllocGuard pins the coordinator's share of the serving path:
// a warm QUORUM op — placement, the attempt protocol, five messages
// through netsim and their replica handlers — stays under 0.1 heap
// allocations, averaged over 50k ops. Before messages travelled as
// pointers to owned slots it took about 17; what remains is amortized
// growth (engine flushes, replica maps, the undo tail's first fill).
// A second window runs the resilience paths warm and holds them to a
// tenth of that, tight enough that one allocation per speculative read
// or per breaker failure fails it.
func TestServeAllocGuard(t *testing.T) {
	c := newServeCluster(t)
	rng := rand.New(rand.NewSource(11))
	quorumOps(c, rng, 50_000)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const ops = 50_000
	quorumOps(c, rng, ops)
	runtime.ReadMemStats(&m1)

	if perOp := float64(m1.Mallocs-m0.Mallocs) / ops; perOp > 0.1 {
		t.Fatalf("warm QUORUM ops allocate %.3f/op, want <= 0.1", perOp)
	}

	// The same stream with node 3 a straggler beyond the op timeout and
	// the breaker armed: every read runs speculate, and writes to node 3
	// time out, open its link and fail each half-open probe
	// (breakerFailure), about 900 times in the measured window.
	opts := DefaultResilienceOptions()
	opts.BreakerFailures = 3
	opts.BreakerCooldown = 1e-4
	if err := c.SetResilience(opts); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeDegradation(3, 100, 1); err != nil {
		t.Fatal(err)
	}
	quorumOps(c, rng, 50_000)
	before := c.Stats()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	quorumOps(c, rng, ops)
	runtime.ReadMemStats(&m1)
	after := c.Stats()

	if after.SpeculativeReads == before.SpeculativeReads || after.BreakerOpens == before.BreakerOpens {
		t.Fatalf("measured window ran %d speculative reads and %d breaker opens, want both",
			after.SpeculativeReads-before.SpeculativeReads, after.BreakerOpens-before.BreakerOpens)
	}
	if perOp := float64(m1.Mallocs-m0.Mallocs) / ops; perOp > 0.01 {
		t.Fatalf("warm QUORUM ops around a straggler allocate %.3f/op, want <= 0.01", perOp)
	}
}

// TestServeNodesKeepNoSeries: after the warm QUORUM stream every node
// has closed its per-op epochs without keeping a rate per epoch, which
// at EpochOps 1 would be a float64 per replica operation that Metrics
// drops.
func TestServeNodesKeepNoSeries(t *testing.T) {
	c := newServeCluster(t)
	quorumOps(c, rand.New(rand.NewSource(11)), 20_000)
	for i, n := range c.nodes {
		m := n.Metrics()
		if m.Epochs == 0 || len(m.EpochThroughputs) != 0 || len(m.EpochLatencies) != 0 {
			t.Fatalf("node %d: %d epochs kept %d throughput and %d latency entries, want none",
				i, m.Epochs, len(m.EpochThroughputs), len(m.EpochLatencies))
		}
	}
	if m := c.Metrics(); len(m.EpochThroughputs) != 0 || len(m.EpochLatencies) != 0 {
		t.Fatalf("cluster metrics carry %d throughput and %d latency entries", len(m.EpochThroughputs), len(m.EpochLatencies))
	}
}

// TestUndoTailSizedToWindow: a replica's undo tail never holds more
// than the window plus the record that overflows it, so its backing
// stops growing there (append's growth reached ~10.4k records), and
// sliding keeps the newest records in order.
func TestUndoTailSizedToWindow(t *testing.T) {
	r := newReplica(nil)
	const pushes = 3*undoWindow + 5
	for i := range pushes {
		r.pushUndo(undoRec{key: uint64(i)})
		if cap(r.undo) > undoWindow+1 {
			t.Fatalf("after %d pushes the tail's backing holds %d records, window %d", i+1, cap(r.undo), undoWindow)
		}
	}
	for i, u := range r.undo {
		if want := uint64(pushes - len(r.undo) + i); u.key != want {
			t.Fatalf("tail[%d] = key %d, want %d", i, u.key, want)
		}
	}
}

// BenchmarkClusterQuorum times one warm coordinator op of the 50/50
// QUORUM mix.
func BenchmarkClusterQuorum(b *testing.B) {
	c := newServeCluster(b)
	rng := rand.New(rand.NewSource(11))
	quorumOps(c, rng, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	quorumOps(c, rng, b.N)
}

var benchCluster *Cluster

// BenchmarkClusterBuild16 times building the serving-path cluster, the
// dataset preloaded on all 16 nodes. Each build finds the preload image
// held by the cluster built before it, as a rate ladder's clusters do.
func BenchmarkClusterBuild16(b *testing.B) {
	benchCluster = newServeCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCluster = newServeCluster(b)
	}
}
