package frontdoor

// event is one scheduled happening carrying v. Time ties break on an
// integer key, so the event order — and with it the whole simulation —
// is a pure function of the seed.
type event[T any] struct {
	at  float64
	tie uint64
	v   T
}

// eventHeap is a binary min-heap of events ordered by (at, tie).
type eventHeap[T any] []event[T]

func (h eventHeap[T]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tie < h[j].tie
}

//rafiki:hot
func (h *eventHeap[T]) push(e event[T]) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h eventHeap[T]) peek() (event[T], bool) {
	if len(h) == 0 {
		return event[T]{}, false
	}
	return h[0], true
}

//rafiki:hot
func (h *eventHeap[T]) pop() event[T] {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// departure is one in-flight request's outcome, booked when its event
// (at the completion time, tie-broken by request sequence) fires.
type departure struct {
	req     Request
	start   float64
	ok      bool
	version int64
}
