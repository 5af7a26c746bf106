package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rafiki/internal/stats"
)

// HistogramSnapshot is a histogram's exported state.
type HistogramSnapshot struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int   `json:"counts"`
	Total  int     `json:"total"`
}

// Snapshot is a point-in-time export of a registry: every counter,
// gauge, histogram, and buffered span. Marshalling a Snapshot with
// encoding/json is deterministic (map keys are sorted, spans keep
// recording order), so two seeded runs compare byte-for-byte.
type Snapshot struct {
	Counters     map[string]uint64            `json:"counters,omitempty"`
	Gauges       map[string]float64           `json:"gauges,omitempty"`
	Histograms   map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans        []Span                       `json:"spans,omitempty"`
	SpansDropped uint64                       `json:"spans_dropped,omitempty"`
}

// Snapshot exports the registry's current state, exported ledgers
// included (see Export: their owners must be quiescent). On a nil
// registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:     make(map[string]uint64, len(r.counter)),
		Gauges:       make(map[string]float64, len(r.gauge)),
		Histograms:   make(map[string]HistogramSnapshot, len(r.hist)),
		Spans:        make([]Span, len(r.spans)),
		SpansDropped: r.dropped,
	}
	for name, c := range r.counter {
		s.Counters[name] = c.Value()
	}
	for _, l := range r.ledgers {
		ledgerCounters(l, func(name string, n uint64) { s.Counters[name] += n })
	}
	for name, g := range r.gauge {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hist {
		sh := h.snapshot()
		s.Histograms[name] = HistogramSnapshot{
			Lo: sh.Lo, Hi: sh.Hi, Counts: sh.Counts, Total: sh.Total(),
		}
	}
	copy(s.Spans, r.spans)
	return s
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// spanGroup aggregates same-named spans for the dashboard.
type spanGroup struct {
	name     string
	unit     string
	count    int
	total    float64
	min, max float64
}

// Dashboard renders the snapshot as a text report: sorted counters and
// gauges, rendered histograms, and per-name span summaries. It is the
// human view of the same data JSON exports.
func (s Snapshot) Dashboard() string {
	var sb strings.Builder
	sb.WriteString("== observability dashboard ==\n")

	if len(s.Counters) > 0 {
		sb.WriteString("\ncounters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&sb, "  %-36s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		sb.WriteString("\ngauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&sb, "  %-36s %g\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		sb.WriteString("\nhistograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			hs := s.Histograms[name]
			fmt.Fprintf(&sb, "  %s (n=%d, range [%g, %g)):\n", name, hs.Total, hs.Lo, hs.Hi)
			h := &stats.Histogram{Lo: hs.Lo, Hi: hs.Hi, Counts: hs.Counts}
			for _, line := range strings.Split(strings.TrimRight(h.Render(30), "\n"), "\n") {
				sb.WriteString("  " + line + "\n")
			}
		}
	}
	if len(s.Spans) > 0 {
		groups := make(map[string]*spanGroup)
		for _, sp := range s.Spans {
			g, ok := groups[sp.Name]
			if !ok {
				g = &spanGroup{name: sp.Name, unit: sp.Unit, min: sp.Dur(), max: sp.Dur()}
				groups[sp.Name] = g
			}
			d := sp.Dur()
			g.count++
			g.total += d
			if d < g.min {
				g.min = d
			}
			if d > g.max {
				g.max = d
			}
		}
		sb.WriteString("\nspans:\n")
		for _, name := range sortedKeys(groups) {
			g := groups[name]
			fmt.Fprintf(&sb, "  %-28s n=%-6d total=%-12.6g mean=%-12.6g min=%-12.6g max=%-12.6g [%s]\n",
				g.name, g.count, g.total, g.total/float64(g.count), g.min, g.max, g.unit)
		}
		if s.SpansDropped > 0 {
			fmt.Fprintf(&sb, "  (%d spans dropped: buffer full)\n", s.SpansDropped)
		}
	}
	return sb.String()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
