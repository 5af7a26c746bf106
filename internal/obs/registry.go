package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"rafiki/internal/stats"
)

// maxSpans bounds the span buffer. Once full, further spans are
// counted in SpansDropped rather than stored, keeping memory bounded
// on long runs while the drop count keeps the truncation honest.
const maxSpans = 16384

// Registry names and owns a run's instruments. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is the disabled
// state: every method is nil-safe and returns a nil instrument whose
// methods are in turn no-ops, so instrumented code never branches on
// "is observability on".
//
// Instruments are created on first use and interned: the same name
// always returns the same instrument, so hot paths should resolve
// instruments once up front and hold the pointers.
type Registry struct {
	mu      sync.Mutex
	counter map[string]*Counter
	gauge   map[string]*Gauge
	hist    map[string]*Histogram
	spans   []Span
	dropped uint64

	// ledgers are the pointers handed to Export: the registry pins each
	// ledger and nothing around it.
	ledgers []any

	// parent marks a stage registry (see Stage): counters and
	// histograms — whose updates are commutative — resolve through it,
	// while gauges and spans buffer locally until Merge replays them in
	// task order.
	parent *Registry
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counter: make(map[string]*Counter),
		gauge:   make(map[string]*Gauge),
		hist:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Counter(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counter[name]
	if !ok {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil
// (a valid no-op instrument) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauge[name]
	if !ok {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it over [lo, hi)
// with bins bins if needed. The range arguments only matter on first
// creation; later calls with the same name return the existing
// instrument unchanged. Returns nil (a valid no-op instrument) on a
// nil registry or an invalid range.
func (r *Registry) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Histogram(name, lo, hi, bins)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hist[name]
	if !ok {
		sh, err := stats.NewHistogram(lo, hi, bins)
		if err != nil {
			return nil
		}
		h = &Histogram{h: sh}
		r.hist[name] = h
	}
	return h
}

// ledgerCounters calls visit with the name and value of each integer
// field of the struct ledger points to that is tagged `obs:"<name>"`,
// in field order. It panics unless ledger is a non-nil pointer to a
// struct whose tagged fields are all integers.
func ledgerCounters(ledger any, visit func(name string, n uint64)) {
	v := reflect.ValueOf(ledger)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: ledger must be a non-nil pointer to a struct, got %T", ledger))
	}
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		name, tagged := v.Type().Field(i).Tag.Lookup("obs")
		switch f := v.Field(i); {
		case !tagged:
		case f.CanUint():
			visit(name, f.Uint())
		case f.CanInt():
			visit(name, uint64(f.Int()))
		default:
			panic(fmt.Sprintf("obs: %s.%s is tagged %q but is not an integer", v.Type(), v.Type().Field(i).Name, name))
		}
	}
}

// Export makes ledger — a pointer to a component's struct of always-on
// counters — part of this registry's snapshots: every integer field
// tagged `obs:"<name>"` is reported as counter <name>, summed over every
// exported ledger and the interned Counter of that name, if any. The
// component keeps bumping plain fields; nothing is copied until
// Snapshot reads them, so like Merge a Snapshot must be taken at a
// quiescent point. The registry holds the pointer until Reset: export a
// small allocation of its own (c.stats = new(Stats)), never the address
// of a field, or the registry pins the whole component. A stage child
// forwards to its parent. No-op on a nil registry; panics on a ledger
// that is not a pointer to a struct or tags a non-integer field.
func (r *Registry) Export(ledger any) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.Export(ledger)
		return
	}
	ledgerCounters(ledger, func(string, uint64) {}) // reject a malformed ledger now, not at Snapshot
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ledgers = append(r.ledgers, ledger)
}

// Record stores one finished span, dropping (and counting) it if the
// buffer is full. No-op on a nil registry.
func (r *Registry) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// SpanCount returns the number of buffered spans; zero on nil.
func (r *Registry) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Stage returns a child registry for one task of a parallel stage.
// Counter and Histogram lookups resolve to this registry's instruments
// — their updates commute, so concurrent tasks can share them without
// making the final snapshot schedule-dependent — while gauges and
// spans (whose outcomes are order-sensitive) buffer locally in the
// child. After the stage's tasks complete, call Merge on each child in
// task order: the parent's snapshot then depends only on the task
// order, never on how many workers ran or how they interleaved.
// Stages nest: a stage of a stage buffers locally and merges upward
// one level at a time. Returns nil (a valid no-op registry) on a nil
// receiver.
func (r *Registry) Stage() *Registry {
	if r == nil {
		return nil
	}
	return &Registry{parent: r, gauge: make(map[string]*Gauge)}
}

// Merge folds a finished stage child into r: buffered gauge values are
// applied in sorted-name order and buffered spans are appended in
// recording order (respecting the span cap, accumulating the child's
// drop count). The child must be quiescent — Merge is the ordered
// hand-off that makes parallel stages deterministic. No-op when either
// side is nil.
func (r *Registry) Merge(child *Registry) {
	if r == nil || child == nil {
		return
	}
	names := make([]string, 0, len(child.gauge))
	for name := range child.gauge {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Gauge(name).Set(child.gauge[name].Value())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range child.spans {
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += child.dropped
}

// Reset clears all instruments, spans and exported ledgers while
// keeping the registry enabled. Pointers previously resolved from the
// registry keep working but refer to instruments no longer exported by
// snapshots.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counter = make(map[string]*Counter)
	r.gauge = make(map[string]*Gauge)
	r.hist = make(map[string]*Histogram)
	r.spans = nil
	r.dropped = 0
	r.ledgers = nil
}
