package cluster

import (
	"math"
	"math/rand"
	"testing"

	"rafiki/internal/config"
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

// opDigest folds every coordinator-visible outcome of a scripted run —
// the op history — into one FNV-1a fingerprint.
type opDigest uint64

func (d *opDigest) mix(vs ...uint64) {
	h := uint64(*d)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	*d = opDigest(h)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestDuplicatedLegsMatchGolden pins the message transport's slot
// discipline. With every leg duplicated and a nonzero, jittered latency,
// each request is handled twice and each reply delivered twice (four
// reply copies per exchange), while reads trigger read repair and a
// rebalance stream runs underneath. A reply slot that a later message
// overwrote before its reader was done, or a request slot aliased across
// a nested exchange, would change a result, a counter, or the clock; the
// goldens were captured on the by-value transport this one replaced
// (Reads, Mutations, Scans, OpAttempts and OpSuccesses, obs counters
// only back then, on the tree before Stats gained them as fields).
func TestDuplicatedLegsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		cl         ConsistencyLevel
		wantDigest opDigest
		wantStats  Stats
		wantNet    netsim.Stats
		wantClock  uint64
		wantWork   uint64
	}{
		{
			cl:         ConsistencyQuorum,
			wantDigest: 0x1bf4dca4643162b9,
			wantStats:  Stats{Reads: 296, Mutations: 281, Scans: 63, OpAttempts: 1601, OpSuccesses: 1601, ReadRepairs: 21, RangesMoved: 11, StreamsStarted: 11, StreamsCompleted: 11, StreamedCells: 102, ForwardedWrites: 8},
			wantNet:    netsim.Stats{Sent: 4961, Delivered: 9922, Duplicated: 4961, Reordered: 3159},
			wantClock:  0x3fae1c8968213d81,
			wantWork:   0x3fb6542adb9a1b66,
		},
		{
			cl:         ConsistencyAll,
			wantDigest: 0x46498d3ee39e230b,
			wantStats:  Stats{Reads: 296, Mutations: 281, Scans: 63, OpAttempts: 1960, OpSuccesses: 1960, ReadRepairs: 32, RangesMoved: 11, StreamsStarted: 11, StreamsCompleted: 11, StreamedCells: 102, ForwardedWrites: 8},
			wantNet:    netsim.Stats{Sent: 6071, Delivered: 12142, Duplicated: 6071, Reordered: 3829},
			wantClock:  0x3faf1b13c12ab55f,
			wantWork:   0x3fb814c54b0c247a,
		},
	} {
		t.Run(tc.cl.String(), func(t *testing.T) {
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
			if err := c.SetReadConsistency(tc.cl); err != nil {
				t.Fatal(err)
			}
			if err := c.SetWriteConsistency(tc.cl); err != nil {
				t.Fatal(err)
			}
			duplicateEveryLeg(t, c)
			c.Preload(1)

			d := opDigest(14695981039346656037)
			write := func(key uint64, tomb bool) {
				var w WriteResult
				if tomb {
					w = c.DeleteOp(key)
				} else {
					w = c.WriteOp(key)
				}
				d.mix(1, key, b2u(tomb), uint64(w.Version), uint64(w.Acked), b2u(w.OK), math.Float64bits(c.Clock()))
			}
			read := func(key uint64) {
				r := c.ReadOp(key)
				d.mix(2, key, uint64(r.Version), b2u(r.Deleted), uint64(r.Served), b2u(r.OK), math.Float64bits(c.Clock()))
			}
			scan := func(start uint64) {
				s := c.ScanOp(start, 16)
				d.mix(3, start, uint64(s.Rows), uint64(s.Served), b2u(s.OK), math.Float64bits(c.Clock()))
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
			gotClock, gotWork := math.Float64bits(c.Clock()), math.Float64bits(c.WorkClock())
			if d != tc.wantDigest || st != tc.wantStats || ns != tc.wantNet ||
				gotClock != tc.wantClock || gotWork != tc.wantWork {
				t.Errorf("run diverged from the golden:\n digest %#x, want %#x\n stats  %+v\n want   %+v\n net    %+v\n want   %+v\n clock  %#x, want %#x\n work   %#x, want %#x",
					uint64(d), uint64(tc.wantDigest), st, tc.wantStats, ns, tc.wantNet,
					gotClock, tc.wantClock, gotWork, tc.wantWork)
			}
		})
	}
}
