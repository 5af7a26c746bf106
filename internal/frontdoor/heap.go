package frontdoor

// Binary min-heaps for the two event streams. Both break time ties on
// a secondary integer key so the event order — and with it the whole
// simulation — is a pure function of the seed.

// arrEv is one tenant's next arrival.
type arrEv struct {
	at     float64
	tenant int
}

// arrHeap orders arrivals by (at, tenant).
type arrHeap []arrEv

func (h arrHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tenant < h[j].tenant
}

//rafiki:hot
func (h *arrHeap) push(e arrEv) {
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

func (h *arrHeap) peek() (arrEv, bool) {
	if len(*h) == 0 {
		return arrEv{}, false
	}
	return (*h)[0], true
}

//rafiki:hot
func (h *arrHeap) pop() arrEv {
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

// depEv is one in-flight request's departure.
type depEv struct {
	at      float64
	seq     uint64
	req     Request
	start   float64
	ok      bool
	version int64
}

// depHeap orders departures by (at, seq).
type depHeap []depEv

func (h depHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//rafiki:hot
func (h *depHeap) push(e depEv) {
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

func (h *depHeap) peek() (depEv, bool) {
	if len(*h) == 0 {
		return depEv{}, false
	}
	return (*h)[0], true
}

//rafiki:hot
func (h *depHeap) pop() depEv {
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
