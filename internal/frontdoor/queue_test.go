package frontdoor

import "testing"

func TestAdmissionQueueValidation(t *testing.T) {
	if _, err := NewAdmissionQueue(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewAdmissionQueue(4, 8); err == nil {
		t.Error("per-tenant bound above capacity accepted")
	}
}

func TestAdmissionQueueFIFOPerTenantAndRoundRobin(t *testing.T) {
	q, err := NewAdmissionQueue(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 0 floods first; tenants 1 and 2 trickle in later. Service
	// must rotate across tenants, FIFO within each.
	seq := uint64(0)
	offer := func(tenant int) uint64 {
		seq++
		if !q.Offer(Request{Tenant: tenant, Seq: seq}) {
			t.Fatalf("offer rejected below capacity (tenant %d)", tenant)
		}
		return seq
	}
	var want []uint64
	a1, a2, a3 := offer(0), offer(0), offer(0)
	b1, b2 := offer(1), offer(1)
	c1 := offer(2)
	// Round-robin order: 0,1,2,0,1,0 — each tenant's own requests in
	// offer order.
	want = append(want, a1, b1, c1, a2, b2, a3)
	for i, w := range want {
		r, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if r.Seq != w {
			t.Fatalf("pop %d: got seq %d, want %d", i, r.Seq, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("drained queue still pops")
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	q, err := NewAdmissionQueue(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Offer(Request{Tenant: 0, Seq: 1}) || !q.Offer(Request{Tenant: 0, Seq: 2}) {
		t.Fatal("offers under the tenant bound rejected")
	}
	if q.Offer(Request{Tenant: 0, Seq: 3}) {
		t.Error("tenant bound not enforced")
	}
	if !q.Offer(Request{Tenant: 1, Seq: 4}) || !q.Offer(Request{Tenant: 2, Seq: 5}) {
		t.Fatal("offers under the global bound rejected")
	}
	if q.Offer(Request{Tenant: 3, Seq: 6}) {
		t.Error("global bound not enforced")
	}
	if q.Len() != 4 {
		t.Errorf("len = %d, want 4", q.Len())
	}
}

// FuzzAdmissionQueue drives a random offer/pop schedule against a flat
// model and asserts the queue's contract: it never exceeds its bounds,
// never reorders one tenant's requests, and never emits a request it
// rejected.
func FuzzAdmissionQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0xff, 0x22}, uint8(8), uint8(2))
	f.Add([]byte{0x80, 0x81, 0x82, 0x00, 0x01}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, script []byte, capacity, perTenant uint8) {
		qcap := int(capacity%32) + 1
		per := int(perTenant % 8) // 0 = unbounded per tenant
		if per > qcap {
			per = qcap
		}
		q, err := NewAdmissionQueue(qcap, per)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[int][]uint64) // tenant -> accepted seqs, FIFO
		size := 0
		var seq uint64
		for _, b := range script {
			if b&0x80 == 0 {
				// Offer from one of 8 tenants.
				tenant := int(b % 8)
				seq++
				accepted := q.Offer(Request{Tenant: tenant, Seq: seq})
				wantAccept := size < qcap && (per == 0 || len(model[tenant]) < per)
				if accepted != wantAccept {
					t.Fatalf("offer seq %d tenant %d: accepted=%v, model says %v", seq, tenant, accepted, wantAccept)
				}
				if accepted {
					model[tenant] = append(model[tenant], seq)
					size++
				}
			} else {
				r, ok := q.Pop()
				if ok != (size > 0) {
					t.Fatalf("pop: ok=%v with model size %d", ok, size)
				}
				if !ok {
					continue
				}
				backlog := model[r.Tenant]
				if len(backlog) == 0 {
					t.Fatalf("popped seq %d for tenant %d with empty model backlog (shed or duplicate)", r.Seq, r.Tenant)
				}
				if backlog[0] != r.Seq {
					t.Fatalf("tenant %d popped seq %d, FIFO head is %d", r.Tenant, r.Seq, backlog[0])
				}
				model[r.Tenant] = backlog[1:]
				size--
			}
			if q.Len() != size {
				t.Fatalf("len = %d, model size %d", q.Len(), size)
			}
			if q.Len() > qcap {
				t.Fatalf("len = %d exceeds capacity %d", q.Len(), qcap)
			}
		}
	})
}

// TestAdmissionQueueSparseAndNegativeTenants: tenant ids are opaque —
// sparse, huge and negative ones queue, rotate and recycle buffers like
// any other.
func TestAdmissionQueueSparseAndNegativeTenants(t *testing.T) {
	q, err := NewAdmissionQueue(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []int{-7, 1 << 40, 0, -1, 999_983}
	var seq uint64
	for round := 0; round < 5; round++ {
		// Three per tenant fills each tenant's bound; a fourth is refused.
		for i := 0; i < 3; i++ {
			for _, tn := range tenants {
				seq++
				if !q.Offer(Request{Tenant: tn, Seq: seq}) {
					t.Fatalf("round %d: offer %d for tenant %d rejected under its bound", round, i, tn)
				}
			}
		}
		if q.Offer(Request{Tenant: tenants[0], Seq: seq + 1}) {
			t.Fatalf("tenant bound not enforced for id %d", tenants[0])
		}
		if got := q.TenantLen(tenants[0]); got != 3 {
			t.Fatalf("TenantLen(%d) = %d, want 3", tenants[0], got)
		}
		// Round-robin in first-offer order, FIFO within each tenant.
		last := map[int]uint64{}
		for i := 0; i < 3*len(tenants); i++ {
			r, ok := q.Pop()
			if !ok {
				t.Fatalf("round %d: queue empty after %d pops", round, i)
			}
			if want := tenants[i%len(tenants)]; r.Tenant != want {
				t.Fatalf("round %d pop %d: tenant %d, want %d", round, i, r.Tenant, want)
			}
			if r.Seq <= last[r.Tenant] {
				t.Fatalf("tenant %d reordered: seq %d after %d", r.Tenant, r.Seq, last[r.Tenant])
			}
			last[r.Tenant] = r.Seq
		}
		if q.Len() != 0 || q.TenantLen(tenants[1]) != 0 {
			t.Fatalf("round %d: drained queue reports len %d", round, q.Len())
		}
		// Later rounds use different ids, so the emptied buffers change hands.
		for i := range tenants {
			tenants[i] = tenants[i]*3 - 11
		}
	}
	if got := len(q.backlogs); got != len(tenants) {
		t.Errorf("queue holds %d backlog buffers for %d concurrent tenants: emptied ones were not reused", got, len(tenants))
	}
}

// TestAdmissionQueueAllocGuard: once its buffers exist, an offer+pop
// cycle allocates nothing, whether the tenant's backlog empties (its
// buffer is parked and taken again) or keeps a remainder.
func TestAdmissionQueueAllocGuard(t *testing.T) {
	q, err := NewAdmissionQueue(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	cycle := func(tenant int) {
		seq++
		if !q.Offer(Request{Tenant: tenant, Seq: seq}) {
			t.Fatal("offer rejected below capacity")
		}
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop on a non-empty queue failed")
		}
	}
	// A standing backlog across 64 tenants, then warm cycles through 512.
	for i := 0; i < 256; i++ {
		seq++
		q.Offer(Request{Tenant: i % 64, Seq: seq})
	}
	for i := 0; i < 4096; i++ {
		cycle(i % 512)
	}
	i := 0
	if allocs := testing.AllocsPerRun(4096, func() { cycle(i % 512); i++ }); allocs != 0 {
		t.Errorf("warm offer+pop allocates %v times per cycle, want 0", allocs)
	}
}

// BenchmarkAdmissionQueue times one offer+pop cycle against a standing
// backlog, tenants rotating the way the front door's arrivals do.
func BenchmarkAdmissionQueue(b *testing.B) {
	q, err := NewAdmissionQueue(65536, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		q.Offer(Request{Tenant: i % 2048, Seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Offer(Request{Tenant: i % 2048, Seq: uint64(i)})
		q.Pop()
	}
}
