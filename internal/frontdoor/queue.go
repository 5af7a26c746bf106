package frontdoor

import "fmt"

// Request is one tenant operation offered to the front door. The op's
// shape (kind, key) is drawn at arrival time from the tenant's seeded
// stream, so admission decisions can never perturb the op sequence.
type Request struct {
	// Tenant is the flat tenant index; Seq the global arrival sequence
	// number (unique, monotone in arrival order).
	Tenant int
	Seq    uint64
	// IsRead selects the op kind; Key is the key operated on.
	IsRead bool
	Key    uint64
	// Arrived is the arrival time and Deadline the absolute virtual
	// time after which executing the request is pointless (0 = none).
	Arrived  float64
	Deadline float64
}

// AdmissionQueue is the front door's bounded waiting room: FIFO within
// each tenant, deterministic round-robin fairness across tenants, and
// hard global and per-tenant bounds whose overflow is the backpressure
// signal. It is deliberately self-contained — no clock, no rand — so
// its invariants (never over capacity, never reorders a tenant, never
// emits a rejected request) are directly fuzzable.
type AdmissionQueue struct {
	capacity  int
	perTenant int
	size      int

	// pending maps each tenant with a non-empty backlog to its FIFO in
	// backlogs; free lists the FIFOs of tenants whose backlog emptied,
	// so the next tenant to queue reuses one instead of allocating. Any
	// int is a legal tenant id.
	pending  map[int]int
	backlogs []fifo[Request]
	free     []int
	// ring holds every tenant with a non-empty backlog exactly once, in
	// round-robin service order. Tenants enter the ring when their
	// backlog becomes non-empty and re-enter at the tail after being
	// served with backlog remaining, so one chatty tenant cannot starve
	// the rest.
	ring fifo[int]
}

// fifo is a growable circular buffer: pushes and pops move two indexes
// over one backing array, which doubles only when full (its length
// stays a power of two, so wrapping is a mask).
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

//rafiki:hot
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		grown := make([]T, max(4, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

//rafiki:hot
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// NewAdmissionQueue builds a queue holding at most capacity requests
// overall and perTenant per tenant (perTenant <= 0 means no per-tenant
// bound beyond the global one).
func NewAdmissionQueue(capacity, perTenant int) (*AdmissionQueue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("frontdoor: queue capacity %d must be positive", capacity)
	}
	if perTenant > capacity {
		return nil, fmt.Errorf("frontdoor: per-tenant bound %d exceeds capacity %d", perTenant, capacity)
	}
	return &AdmissionQueue{capacity: capacity, perTenant: perTenant, pending: make(map[int]int)}, nil
}

// Offer enqueues r, reporting false — backpressure — when the global
// capacity or the tenant's bound is exhausted. A rejected request
// leaves no trace in the queue.
//
//rafiki:hot
func (q *AdmissionQueue) Offer(r Request) bool {
	if q.size >= q.capacity {
		return false
	}
	b, queued := q.pending[r.Tenant]
	if !queued {
		if k := len(q.free); k > 0 {
			b, q.free = q.free[k-1], q.free[:k-1]
		} else {
			b = len(q.backlogs)
			q.backlogs = append(q.backlogs, fifo[Request]{})
		}
		q.pending[r.Tenant] = b
		q.ring.push(r.Tenant)
	} else if q.perTenant > 0 && q.backlogs[b].n >= q.perTenant {
		return false
	}
	q.backlogs[b].push(r)
	q.size++
	return true
}

// Pop dequeues the next request in round-robin tenant order, FIFO
// within the chosen tenant. It reports false on an empty queue.
//
//rafiki:hot
func (q *AdmissionQueue) Pop() (Request, bool) {
	if q.size == 0 {
		return Request{}, false
	}
	t := q.ring.pop()
	b := q.pending[t]
	r := q.backlogs[b].pop()
	if q.backlogs[b].n > 0 {
		q.ring.push(t)
	} else {
		delete(q.pending, t)
		q.free = append(q.free, b)
	}
	q.size--
	return r, true
}

// Len returns the number of queued requests.
func (q *AdmissionQueue) Len() int { return q.size }

// TenantLen returns tenant t's backlog length.
func (q *AdmissionQueue) TenantLen(t int) int {
	if b, queued := q.pending[t]; queued {
		return q.backlogs[b].n
	}
	return 0
}
