package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own files. Spans of one request share Req. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int32
	Parent int32 // 0 = root
	Req    int64
	Name   string
	Start  int64
	End    int64 // -1 while open
}

// maxRawSpans bounds the leaf spans kept verbatim for the trace file;
// every span still lands in its name's duration list.
const maxRawSpans = 50_000

// tracer keeps spans in memory and writes them out when the benchmark
// ends. Structural spans (begin/end) are always kept; leaf spans, of
// which a run records millions, are kept as durations per name plus a
// seed-sampled subset of raw spans.
type tracer struct {
	mu     sync.Mutex // tune_dynamic's samples end on pool goroutines
	epoch  time.Time
	seed   uint64
	nextID int32
	spans  []span // structural spans, by ID order of begin
	leaves []span // sampled leaf spans
	// durs holds every span's duration by name; leafCover the time a
	// structural span's sequential leaf children cover.
	durs      map[string][]int64
	leafCover map[int32]int64
	leafEvery uint64
	count     int64
}

func newTracer(seed int64, expectLeaves int) *tracer {
	every := uint64(1)
	if expectLeaves > maxRawSpans {
		every = uint64(expectLeaves/maxRawSpans) + 1
	}
	return &tracer{
		epoch:     time.Now(),
		seed:      uint64(seed),
		durs:      make(map[string][]int64),
		leafCover: make(map[int32]int64),
		leafEvery: every,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a structural span under parent (0 = root) and returns its
// id; end closes it. Both do nothing on a nil tracer, so code shared by
// traced and untraced runs calls them unconditionally.
func (t *tracer) begin(parent int32, name string, req int64) int32 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1] // leaf spans take no ids, so ids index t.spans
	s.End = now
	t.addDur(s.Name, now-s.Start)
	t.mu.Unlock()
}

// leaf records a finished childless span under a structural parent
// whose leaf children run one after another (so their durations add up
// to the time they cover). Single goroutine only.
func (t *tracer) leaf(parent int32, name string, req, start, end int64) {
	t.addDur(name, end-start)
	t.leafCover[parent] += end - start
	if len(t.leaves) < maxRawSpans && splitmix(t.seed^uint64(req))%t.leafEvery == 0 {
		t.leaves = append(t.leaves, span{Parent: parent, Req: req, Name: name, Start: start, End: end})
	}
}

func (t *tracer) addDur(name string, d int64) {
	if d < 0 {
		d = 0
	}
	t.durs[name] = append(t.durs[name], d)
	t.count++
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// durations returns name's recorded durations in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	ds := t.durs[name]
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// total returns the summed duration of name's spans in nanoseconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durs[name] {
		sum += float64(d)
	}
	return sum
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
// Children of a span may overlap (samples on pool goroutines), so a
// plain sum would count shared time twice.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children
// cover: dur - union(children).
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - covered(lo, hi, children)
}

// selfTimes computes every structural span's self time, from its
// structural children's intervals plus the time its leaves cover.
func (t *tracer) selfTimes() map[int32]int64 {
	kids := make(map[int32][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int32]int64, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = selfTime(s.Start, s.End, kids[s.ID]) - t.leafCover[s.ID]
	}
	return out
}

// selfTimesOK reports whether every span's children fit inside it.
func (t *tracer) selfTimesOK() bool {
	for _, self := range t.selfTimes() {
		if self < 0 {
			return false
		}
	}
	return true
}

// find returns the first closed structural span called name.
func (t *tracer) find(name string) (span, bool) {
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			return s, true
		}
	}
	return span{}, false
}

// spanCostNs calibrates, once per process, what recording one leaf span
// costs: two clock reads and the bookkeeping, on a scratch tracer.
var spanCostNs = sync.OnceValue(func() float64 {
	const n = 200_000
	t := newTracer(1, n)
	start := time.Now()
	for i := int64(0); i < n; i++ {
		a := t.now()
		b := t.now()
		t.leaf(1, "calibrate", i, a, b)
	}
	return float64(time.Since(start).Nanoseconds()) / n
})

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// nameSummary is one span name's full-population summary.
type nameSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Ns   float64 `json:"p50_ns"`
	TailP   float64 `json:"tail_percentile"`
	TailNs  float64 `json:"tail_ns"`
	MaxNs   float64 `json:"max_ns"`
}

// write stores the trace as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Structural spans sit on tid 1
// with their self time in args; sampled leaf spans on tid 2. The
// "summaries" key (ignored by viewers) carries every name's full
// duration summary, since the raw leaf spans are only a sample.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	events := make([]traceEvent, 0, len(t.spans)+len(t.leaves))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	for _, s := range t.leaves {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 2,
			Args: map[string]any{"parent": s.Parent, "req": s.Req},
		})
	}
	names := make([]string, 0, len(t.durs))
	for n := range t.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	sums := make([]nameSummary, 0, len(names))
	for _, n := range names {
		ds := t.durations(n)
		sort.Float64s(ds)
		tp := tailPercentile(len(ds))
		sums = append(sums, nameSummary{
			Name: n, Count: len(ds), TotalMs: t.total(n) / 1e6,
			P50Ns: quantileSorted(ds, 0.5), TailP: tp, TailNs: quantileSorted(ds, tp), MaxNs: ds[len(ds)-1],
		})
	}
	blob, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"summaries":       sums,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
