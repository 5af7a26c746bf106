package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"rafiki/internal/golden"
	"rafiki/internal/obs"
)

// collect installs a recording handler on every endpoint and returns
// the shared record slice pointer.
type arrival struct {
	to, from int
	payload  any
	at       float64
}

func recordingNet(t *testing.T, opts Options) (*Network, *[]arrival) {
	t.Helper()
	nw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []arrival
	for ep := Coordinator; ep < opts.Nodes; ep++ {
		ep := ep
		if err := nw.SetHandler(ep, func(from int, payload any, at float64) {
			got = append(got, arrival{to: ep, from: from, payload: payload, at: at})
		}); err != nil {
			t.Fatal(err)
		}
	}
	return nw, &got
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Nodes: 0}); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := New(Options{Nodes: 2, BaseLatency: -1}); err == nil {
		t.Error("negative latency should error")
	}
	if _, err := New(Options{Nodes: 2, Jitter: 1}); err == nil {
		t.Error("jitter >= 1 should error")
	}
}

func TestPerfectNetworkDeliversInstantlyInOrder(t *testing.T) {
	nw, got := recordingNet(t, Options{Nodes: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		if r := nw.Send(Coordinator, i, "w", 5); !r.Delivered || r.Arrival != 5 {
			t.Errorf("target %d: delivered=%v arrival=%v, want instant delivery", i, r.Delivered, r.Arrival)
		}
	}
	if len(*got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(*got))
	}
	for i, a := range *got {
		if a.to != i || a.from != Coordinator || a.at != 5 {
			t.Errorf("delivery %d = %+v, want to=%d from=c at=5", i, a, i)
		}
	}
	st := nw.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Dropped != 0 || st.Reordered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	nw, got := recordingNet(t, Options{Nodes: 2, Seed: 1})
	if err := nw.Partition(Coordinator, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Partition(Coordinator, 0, 1); err == nil {
		t.Error("double partition should error")
	}
	if !nw.Partitioned(Coordinator, 0) {
		t.Error("link should report partitioned")
	}
	// Severed direction drops; reverse direction still flows.
	if res := nw.Send(Coordinator, 0, "x", 2); res.Delivered {
		t.Error("partitioned link delivered")
	}
	if res := nw.Send(0, Coordinator, "y", 2); !res.Delivered {
		t.Error("reverse direction should deliver")
	}
	if err := nw.Heal(Coordinator, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := nw.Heal(Coordinator, 0, 3); err == nil {
		t.Error("healing a healthy link should error")
	}
	if res := nw.Send(Coordinator, 0, "z", 4); !res.Delivered {
		t.Error("healed link should deliver")
	}
	st := nw.Stats()
	if st.PartitionDrops != 1 {
		t.Errorf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}
	want := []arrival{{to: Coordinator, from: 0, payload: "y", at: 2}, {to: 0, from: Coordinator, payload: "z", at: 4}}
	if len(*got) != len(want) {
		t.Fatalf("deliveries = %v", *got)
	}
	for i, a := range *got {
		if a != want[i] {
			t.Errorf("delivery %d = %+v, want %+v", i, a, want[i])
		}
	}
}

func TestDropAndDuplicateProbabilities(t *testing.T) {
	nw, got := recordingNet(t, Options{Nodes: 2, Seed: 42})
	if err := nw.SetCondition(Coordinator, 0, Condition{DropProb: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetCondition(Coordinator, 1, Condition{DupProb: 0.5}); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		nw.Send(Coordinator, 0, i, float64(i))
		nw.Send(Coordinator, 1, i, float64(i))
	}
	st := nw.Stats()
	if st.Dropped < n/3 || st.Dropped > 2*n/3 {
		t.Errorf("Dropped = %d of %d at p=0.5", st.Dropped, n)
	}
	if st.Duplicated < n/3 || st.Duplicated > 2*n/3 {
		t.Errorf("Duplicated = %d of %d at p=0.5", st.Duplicated, n)
	}
	if want := st.Sent + st.Duplicated - st.Dropped - st.PartitionDrops; st.Delivered != want {
		t.Errorf("Delivered = %d, want %d (sent+dup-drops)", st.Delivered, want)
	}
	if uint64(len(*got)) != st.Delivered {
		t.Errorf("handler saw %d deliveries, stats say %d", len(*got), st.Delivered)
	}
}

func TestSetConditionValidation(t *testing.T) {
	nw, _ := recordingNet(t, Options{Nodes: 2, Seed: 1})
	if err := nw.SetCondition(0, 0, Condition{}); err == nil {
		t.Error("self-link should error")
	}
	if err := nw.SetCondition(0, 5, Condition{}); err == nil {
		t.Error("bad endpoint should error")
	}
	if err := nw.SetCondition(0, 1, Condition{DropProb: 2}); err == nil {
		t.Error("drop prob > 1 should error")
	}
	if err := nw.SetCondition(0, 1, Condition{DupProb: -1}); err == nil {
		t.Error("negative dup prob should error")
	}
	if err := nw.SetCondition(0, 1, Condition{DelayFactor: -2}); err == nil {
		t.Error("negative delay factor should error")
	}
	if err := nw.SetCondition(0, 1, Condition{DropProb: 0.1, DelayFactor: 3}); err != nil {
		t.Fatal(err)
	}
	if got := nw.LinkCondition(0, 1); got.DropProb != 0.1 || got.DelayFactor != 3 {
		t.Errorf("LinkCondition = %+v", got)
	}
}

func TestLatencyJitterAndReordering(t *testing.T) {
	nw, got := recordingNet(t, Options{Nodes: 3, Seed: 9, BaseLatency: 0.01, Jitter: 0.9})
	// Slow one link hard, and duplicate everything on it, so each send
	// yields two copies with widely spread arrivals.
	if err := nw.SetCondition(Coordinator, 0, Condition{DelayFactor: 10, DupProb: 1}); err != nil {
		t.Fatal(err)
	}
	// Send spacing far tighter than the latency spread, so a fast
	// later sample can overtake a slow earlier one on the same link.
	for i := 0; i < 50; i++ {
		for to := 0; to < 3; to++ {
			nw.Send(Coordinator, to, i, float64(i)*0.001)
		}
	}
	// The two copies of one message must be handed over in arrival order.
	slow := 0
	for i, a := range *got {
		if a.to != 0 {
			continue
		}
		slow++
		if i > 0 {
			if b := (*got)[i-1]; b.to == 0 && b.payload == a.payload && b.at > a.at {
				t.Fatalf("copies of one message out of arrival order: %+v then %+v", b, a)
			}
		}
	}
	if slow != 100 {
		t.Fatalf("node 0 received %d copies of 50 duplicated sends", slow)
	}
	if st := nw.Stats(); st.Reordered == 0 {
		t.Error("heavily skewed latencies should record FIFO inversions")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (Stats, []arrival) {
		nw, got := recordingNet(t, Options{Nodes: 3, Seed: 77, BaseLatency: 0.004, Jitter: 0.5})
		if err := nw.SetCondition(1, Coordinator, Condition{DropProb: 0.2, DupProb: 0.1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			for to := 0; to < 3; to++ {
				nw.Send(Coordinator, to, i, float64(i))
			}
			nw.Send(1, Coordinator, i, float64(i))
		}
		return nw.Stats(), *got
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, g1[i], g2[i])
		}
	}
}

func TestObsCountersAndPartitionSpans(t *testing.T) {
	reg := obs.NewRegistry()
	nw, _ := recordingNet(t, Options{Nodes: 2, Seed: 3, Obs: reg})
	nw.Send(Coordinator, 0, "a", 1)
	if err := nw.Partition(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Send(0, 1, "b", 3)
	if err := nw.Heal(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	cnt := reg.Snapshot().Counters
	if got := cnt["netsim.sent"]; got != 2 {
		t.Errorf("netsim.sent = %d, want 2", got)
	}
	if got := cnt["netsim.partition_drops"]; got != 1 {
		t.Errorf("netsim.partition_drops = %d, want 1", got)
	}
	if got := cnt["netsim.delivered"]; got != 1 {
		t.Errorf("netsim.delivered = %d, want 1", got)
	}
	if got := reg.Gauge("netsim.active_partitions").Value(); got != 0 {
		t.Errorf("active partitions gauge = %v, want 0 after heal", got)
	}
	if reg.SpanCount() != 1 {
		t.Errorf("span count = %d, want 1 partition span", reg.SpanCount())
	}
}

// TestStatsLedgerNames pins the counter names Stats exports to the six
// the network's obs twin published.
func TestStatsLedgerNames(t *testing.T) {
	golden.Names(t, new(Stats), "netsim.delivered", "netsim.dropped", "netsim.duplicated",
		"netsim.partition_drops", "netsim.reordered", "netsim.sent")
}

// TestAddEndpointBindsLinkCounters: a network grown to three nodes
// publishes the counters a network built with three does, and the new
// endpoint's links count toward them.
func TestAddEndpointBindsLinkCounters(t *testing.T) {
	grownReg, builtReg := obs.NewRegistry(), obs.NewRegistry()
	grown, _ := recordingNet(t, Options{Nodes: 2, Seed: 3, Obs: grownReg})
	if id := grown.AddEndpoint(); id != 2 {
		t.Fatalf("AddEndpoint = %d, want 2", id)
	}
	recordingNet(t, Options{Nodes: 3, Seed: 3, Obs: builtReg})
	grown.Send(2, Coordinator, "a", 1)
	grown.Send(0, 2, "b", 2)
	if err := grown.Partition(2, 0, 3); err != nil {
		t.Fatal(err)
	}
	grown.Send(2, 0, "c", 4)
	got, want := grownReg.Snapshot().Counters, builtReg.Snapshot().Counters
	if len(got) != len(want) {
		t.Errorf("grown network publishes %d counters, built one %d", len(got), len(want))
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("grown network lacks %s", name)
		}
	}
	if got["netsim.sent"] != 3 || got["netsim.delivered"] != 2 || got["netsim.partition_drops"] != 1 {
		t.Errorf("new endpoint's links did not count: %v", got)
	}
}

// oracleDelivery, oracleSend, oracleRoute and oracleDeliver are the
// queue-and-sort Send that inline delivery replaced, kept as the
// reference the fate-equivalence test compares against.
type oracleDelivery struct {
	from, to int
	payload  any
	arrival  float64
}

func (nw *Network) oracleSend(from, to int, payload any, now float64) Result {
	res, deliveries := nw.oracleRoute(from, to, payload, now)
	nw.oracleDeliver(deliveries)
	return res
}

func (nw *Network) oracleRoute(from, to int, payload any, now float64) (Result, []oracleDelivery) {
	if err := nw.checkLink(from, to); err != nil {
		panic(err)
	}
	nw.stats.Sent++
	l := &nw.links[nw.idx(from, to)]
	if l.partitioned {
		nw.stats.PartitionDrops++
		return Result{To: to}, nil
	}
	if p := l.cond.DropProb; p > 0 && nw.rng.Float64() < p {
		nw.stats.Dropped++
		return Result{To: to}, nil
	}
	copies := 1
	if p := l.cond.DupProb; p > 0 && nw.rng.Float64() < p {
		copies = 2
		nw.stats.Duplicated++
	}
	ds := make([]oracleDelivery, copies)
	for i := range ds {
		ds[i] = oracleDelivery{from: from, to: to, payload: payload, arrival: now + nw.latency(l)}
	}
	if copies == 2 && ds[1].arrival < ds[0].arrival {
		ds[0], ds[1] = ds[1], ds[0]
	}
	first := ds[0].arrival
	for i := range ds {
		if ds[i].arrival < l.lastArrival {
			nw.stats.Reordered++
		}
		l.lastArrival = ds[i].arrival
		nw.stats.Delivered++
	}
	return Result{To: to, Delivered: true, Arrival: first}, ds
}

func (nw *Network) oracleDeliver(ds []oracleDelivery) {
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].arrival < ds[j].arrival })
	for _, d := range ds {
		if h := nw.handlers[d.to+1]; h != nil {
			h(d.from, d.payload, d.arrival)
		}
	}
}

// fateRun drives one seeded random scenario — link conditions,
// partitions that come and go, and handlers that echo re-entrantly —
// through send, and returns everything observable about it: the
// handler call sequence, the results, the stats, and where the PRNG
// stands afterwards.
func fateRun(t *testing.T, seed int64, send func(*Network, int, int, any, float64) Result) ([]arrival, []Result, Stats, float64) {
	t.Helper()
	script := rand.New(rand.NewSource(seed))
	nodes := 2 + script.Intn(4)
	opts := Options{Nodes: nodes, Seed: seed * 31}
	if script.Intn(4) > 0 {
		opts.BaseLatency = 1e-4 * (1 + script.Float64())
		if script.Intn(3) > 0 {
			opts.Jitter = 0.95 * script.Float64()
		}
	}
	nw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	endpoint := func() int { return Coordinator + script.Intn(nodes+1) }
	link := func() (int, int) {
		for {
			if from, to := endpoint(), endpoint(); from != to {
				return from, to
			}
		}
	}
	condition := func() Condition {
		var c Condition
		switch script.Intn(4) {
		case 0: // healthy
		case 1:
			c.DropProb = script.Float64()
		case 2:
			c.DupProb = script.Float64()
		default:
			c = Condition{DropProb: 0.3 * script.Float64(), DupProb: script.Float64(), DelayFactor: 4 * script.Float64()}
		}
		return c
	}
	for from := Coordinator; from < nodes; from++ {
		for to := Coordinator; to < nodes; to++ {
			if from != to {
				if err := nw.SetCondition(from, to, condition()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var calls []arrival
	var results []Result
	// A payload is hops-left; a handler with hops left answers the
	// sender and forwards to the next endpoint, from inside the delivery.
	for ep := Coordinator; ep < nodes; ep++ {
		ep := ep
		if err := nw.SetHandler(ep, func(from int, payload any, at float64) {
			calls = append(calls, arrival{to: ep, from: from, payload: payload, at: at})
			hops := payload.(int)
			if hops == 0 {
				return
			}
			results = append(results, send(nw, ep, from, hops-1, at))
			next := (ep+2)%(nodes+1) + Coordinator // the endpoint after ep, wrapping
			results = append(results, send(nw, ep, next, hops-1, at))
		}); err != nil {
			t.Fatal(err)
		}
	}

	now := 0.0
	for i := 0; i < 120; i++ {
		now += 1e-4 * script.Float64()
		switch script.Intn(10) {
		case 0:
			from, to := link()
			if nw.Partitioned(from, to) {
				err = nw.Heal(from, to, now)
			} else {
				err = nw.Partition(from, to, now)
			}
			if err != nil {
				t.Fatal(err)
			}
		case 1:
			from, to := link()
			if err := nw.SetCondition(from, to, condition()); err != nil {
				t.Fatal(err)
			}
		default:
			from, to := link()
			results = append(results, send(nw, from, to, script.Intn(3), now))
		}
	}
	return calls, results, nw.Stats(), nw.rng.Float64()
}

// TestSendMatchesQueueAndSortOracle: inline delivery must be
// indistinguishable from the route-then-stable-sort delivery it
// replaced — same handler calls in the same order with the same
// arrival times, same results and stats, and the PRNG left at the same
// position — over seeded random link conditions.
func TestSendMatchesQueueAndSortOracle(t *testing.T) {
	var delivered, duplicated, dropped, reordered, parted uint64
	for seed := int64(1); seed <= 250; seed++ {
		calls, results, stats, next := fateRun(t, seed, (*Network).Send)
		wantCalls, wantResults, wantStats, wantNext := fateRun(t, seed, (*Network).oracleSend)
		if stats != wantStats {
			t.Fatalf("seed %d: stats %+v, oracle %+v", seed, stats, wantStats)
		}
		if next != wantNext {
			t.Fatalf("seed %d: PRNG position diverged (next draw %v, oracle %v)", seed, next, wantNext)
		}
		if len(calls) != len(wantCalls) || len(results) != len(wantResults) {
			t.Fatalf("seed %d: %d handler calls and %d results, oracle %d and %d",
				seed, len(calls), len(results), len(wantCalls), len(wantResults))
		}
		for i := range calls {
			if calls[i] != wantCalls[i] {
				t.Fatalf("seed %d: handler call %d = %+v, oracle %+v", seed, i, calls[i], wantCalls[i])
			}
		}
		for i := range results {
			if results[i] != wantResults[i] {
				t.Fatalf("seed %d: result %d = %+v, oracle %+v", seed, i, results[i], wantResults[i])
			}
		}
		delivered += stats.Delivered
		duplicated += stats.Duplicated
		dropped += stats.Dropped
		reordered += stats.Reordered
		parted += stats.PartitionDrops
	}
	if delivered == 0 || duplicated == 0 || dropped == 0 || reordered == 0 || parted == 0 {
		t.Errorf("scenarios missed a fate: delivered %d duplicated %d dropped %d reordered %d partition drops %d",
			delivered, duplicated, dropped, reordered, parted)
	}
}

// TestSendAllocGuard: a Send of a pointer payload allocates nothing,
// whether the link is perfect, jittered, or duplicating.
func TestSendAllocGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		cond Condition
	}{
		{"perfect", Options{Nodes: 2, Seed: 5}, Condition{}},
		{"jittered", Options{Nodes: 2, Seed: 5, BaseLatency: 1e-4, Jitter: 0.5}, Condition{}},
		{"duplicating", Options{Nodes: 2, Seed: 5, BaseLatency: 1e-4, Jitter: 0.5}, Condition{DupProb: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.SetCondition(Coordinator, 0, tc.cond); err != nil {
				t.Fatal(err)
			}
			if err := nw.SetCondition(0, Coordinator, tc.cond); err != nil {
				t.Fatal(err)
			}
			type ping struct{ n int }
			var req, reply ping
			seen := 0
			if err := nw.SetHandler(0, func(from int, payload any, at float64) {
				reply.n = payload.(*ping).n
				nw.Send(0, from, &reply, at)
			}); err != nil {
				t.Fatal(err)
			}
			if err := nw.SetHandler(Coordinator, func(_ int, payload any, _ float64) {
				seen += payload.(*ping).n
			}); err != nil {
				t.Fatal(err)
			}
			now := 0.0
			allocs := testing.AllocsPerRun(1000, func() {
				now += 1e-3
				req.n = 1
				nw.Send(Coordinator, 0, &req, now)
			})
			if allocs != 0 {
				t.Errorf("Send allocates %v times per round trip, want 0", allocs)
			}
			if seen == 0 {
				t.Fatal("no reply reached the coordinator")
			}
		})
	}
}

// BenchmarkSend times one request/reply round trip of pointer payloads.
func BenchmarkSend(b *testing.B) {
	nw, err := New(Options{Nodes: 2, Seed: 5, BaseLatency: 1e-4, Jitter: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	var req, reply int
	if err := nw.SetHandler(0, func(from int, _ any, at float64) { nw.Send(0, from, &reply, at) }); err != nil {
		b.Fatal(err)
	}
	if err := nw.SetHandler(Coordinator, func(int, any, float64) {}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(Coordinator, 0, &req, float64(i)*1e-3)
	}
}
