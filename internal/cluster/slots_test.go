package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rafiki/internal/config"
	"rafiki/internal/golden"
	"rafiki/internal/netsim"
)

// duplicateEveryLeg makes every link of c's network deliver each message
// twice: requests, replies, and the node-to-node stream legs alike.
func duplicateEveryLeg(t *testing.T, c *Cluster) {
	t.Helper()
	for from := netsim.Coordinator; from < c.Nodes(); from++ {
		for to := netsim.Coordinator; to < c.Nodes(); to++ {
			if from == to {
				continue
			}
			if err := c.Net().SetCondition(from, to, netsim.Condition{DupProb: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDuplicatedLegsMatchGolden pins the message transport's slot
// discipline. With every leg duplicated and a nonzero, jittered latency,
// each request is handled twice and each reply delivered twice (four
// reply copies per exchange), while reads trigger read repair and a
// rebalance stream runs underneath. A reply slot that a later message
// overwrote before its reader was done, or a request slot aliased across
// a nested exchange, would change a result, a counter, or the clock.
func TestDuplicatedLegsMatchGolden(t *testing.T) {
	for _, cl := range []ConsistencyLevel{ConsistencyQuorum, ConsistencyAll} {
		t.Run(cl.String(), func(t *testing.T) {
			c, err := New(Options{
				Nodes:             5,
				ReplicationFactor: 3,
				Space:             config.Cassandra(),
				Seed:              4242,
				EpochOps:          16,
				NetBaseLatency:    1e-4,
				NetJitter:         0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetReadConsistency(cl); err != nil {
				t.Fatal(err)
			}
			if err := c.SetWriteConsistency(cl); err != nil {
				t.Fatal(err)
			}
			duplicateEveryLeg(t, c)
			c.Preload(1)

			// history is the op history: every coordinator-visible outcome
			// but the critical-path latency, which the pin leaves out so
			// it holds the legs, their order and outcomes alone.
			var history []byte
			write := func(key uint64, tomb bool) {
				var w WriteResult
				if tomb {
					w = c.DeleteOp(key)
				} else {
					w = c.WriteOp(key)
				}
				history = fmt.Appendf(history, "write %d tomb %v {Version:%d Acked:%d OK:%v} clock %v\n",
					key, tomb, w.Version, w.Acked, w.OK, c.Clock())
			}
			read := func(key uint64) {
				r := c.ReadOp(key)
				history = fmt.Appendf(history, "read %d {Version:%d Deleted:%v Served:%d OK:%v} clock %v\n",
					key, r.Version, r.Deleted, r.Served, r.OK, c.Clock())
			}
			scan := func(start uint64) {
				s := c.ScanOp(start, 16)
				history = fmt.Appendf(history, "scan %d {Rows:%d Served:%d OK:%v} clock %v\n", start, s.Rows, s.Served, s.OK, c.Clock())
			}

			const keys = 96
			for k := uint64(0); k < keys; k++ {
				write(k, k%7 == 3)
			}
			// Wipe one replica's versioned state so the reads below find
			// it stale and repair it.
			if _, err := c.CorruptNodeLog(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartNode(1); err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < keys; k += 2 {
				read(k)
			}
			if c.Stats().ReadRepairs == 0 {
				t.Fatal("script triggered no read repair")
			}

			// A join: every following op pumps one stream step, so the
			// mixed ops run with a rebalance stream in flight.
			if _, err := c.AddNode(); err != nil {
				t.Fatal(err)
			}
			duplicateEveryLeg(t, c)
			if c.PendingRanges() == 0 {
				t.Fatal("join scheduled no range to move")
			}
			rng := rand.New(rand.NewSource(99))
			inFlight := 0
			for i := 0; i < 400; i++ {
				if c.PendingRanges() > 0 {
					inFlight++
				}
				key := uint64(rng.Intn(keys))
				switch p := rng.Float64(); {
				case p < 0.40:
					read(key)
				case p < 0.75:
					write(key, false)
				case p < 0.85:
					write(key, true)
				default:
					scan(key)
				}
			}
			if inFlight < 10 {
				t.Fatalf("only %d ops ran with a stream in flight", inFlight)
			}
			drain(t, c)
			for k := uint64(0); k < keys; k++ {
				read(k)
			}

			st, ns := c.Stats(), c.Net().Stats()
			if st.StreamsCompleted == 0 || st.StreamedCells == 0 || st.ForwardedWrites == 0 {
				t.Fatalf("script did not exercise the rebalance stream: %+v", st)
			}
			if ns.Duplicated != ns.Sent {
				t.Fatalf("not every message was duplicated: %+v", ns)
			}
			golden.Check(t, "testdata/duplicated_legs_"+cl.String()+".golden", fmt.Appendf(nil,
				"ops %d digest %s\nstats %+v\nnet %+v\nclock %v\nworkclock %v\n",
				bytes.Count(history, []byte("\n")), golden.Digest(history), st, ns, c.Clock(), c.WorkClock()))
		})
	}
}
