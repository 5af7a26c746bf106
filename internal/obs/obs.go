// Package obs is the repo's unified observability layer: a
// dependency-free metrics registry (counters, gauges, bounded
// histograms) plus span-based tracing driven by the simulator's
// virtual clock, so every trace is bit-for-bit reproducible under a
// seed.
//
// A component's always-on counters are not instruments: it keeps them as
// plain fields of one struct and hands that to Registry.Export, which
// reads them by tag when a snapshot is taken.
//
// Instrumentation is strictly opt-in. Every instrument method is
// nil-safe: code holds possibly-nil *Counter/*Gauge/*Histogram/
// *Registry pointers and calls them unconditionally, and a nil
// receiver returns immediately. A disabled build therefore pays one
// predictable branch per call site — measured at well under 2% on the
// engine write path (see BenchmarkEngineWriteObs in internal/nosql).
//
// Spans do not carry wall-clock time. Each span's Start/End are read
// from whatever monotonic work axis its component already advances —
// virtual seconds for the storage engine and cluster, surrogate
// evaluations for the GA, training epochs for the neural nets, samples
// for the collector — with the axis named in Span.Unit. Two runs at
// the same seed emit byte-identical snapshots.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"rafiki/internal/stats"
)

// Counter is a monotonically increasing uint64, safe for concurrent
// use. The zero value is ready; a nil Counter ignores all updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
//
//rafiki:hot
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
//
//rafiki:hot
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count; zero on a nil receiver.
//
//rafiki:hot
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move in either direction, safe for
// concurrent use. A nil Gauge ignores all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x. No-op on a nil receiver.
//
//rafiki:hot
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the current value; zero on a nil receiver.
//
//rafiki:hot
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded fixed-width-bin histogram (a concurrency-safe
// wrapper over stats.Histogram). Out-of-range observations clamp into
// the edge bins, so tails stay visible without unbounded memory. A nil
// Histogram ignores all updates.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one observation. No-op on a nil receiver.
//
//rafiki:hot
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(x)
	h.mu.Unlock()
}

// Total returns the number of recorded observations; zero on nil.
func (h *Histogram) Total() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Total()
}

// snapshot returns a deep copy of the underlying histogram.
func (h *Histogram) snapshot() *stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]int, len(h.h.Counts))
	copy(counts, h.h.Counts)
	return &stats.Histogram{Lo: h.h.Lo, Hi: h.h.Hi, Counts: counts}
}

// Span is one traced unit of work on a component's own monotonic work
// axis. Start and End are positions on that axis (named by Unit, e.g.
// "vsec", "evals", "epochs"), never wall-clock readings, so spans from
// a seeded run are exactly reproducible.
type Span struct {
	// Name identifies the operation, dot-scoped by package, e.g.
	// "nosql.compaction" or "ga.generation".
	Name string `json:"name"`
	// Start and End are positions on the work axis named by Unit.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Unit names the axis Start/End are measured on.
	Unit string `json:"unit"`
	// Attrs carries small numeric attributes (generation index, MSE,
	// bytes moved...). May be nil.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Dur returns the span's extent on its work axis.
func (s Span) Dur() float64 { return s.End - s.Start }
