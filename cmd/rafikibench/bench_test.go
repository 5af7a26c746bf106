package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lo, hi   int64
		children []interval
		want     int64
	}{
		{"no children", 100, 200, nil, 100},
		{"nested sequential", 0, 100, []interval{{10, 30}, {40, 70}}, 50},
		{"overlapping children count shared time once", 0, 100, []interval{{10, 60}, {40, 90}}, 20},
		{"child inside a sibling", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"children clipped to the parent", 50, 100, []interval{{0, 60}, {90, 150}}, 30},
		{"children cover everything", 0, 10, []interval{{0, 5}, {5, 10}}, 0},
	} {
		if got := selfTime(tc.lo, tc.hi, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfTimesWithLeaves(t *testing.T) {
	tr := newTracer(1, 0)
	root := tr.begin(0, "root", 0)
	child := tr.begin(root, "child", 1)
	tr.leaf(child, "leaf", 1, tr.spans[child-1].Start, tr.spans[child-1].Start) // zero-length leaf
	tr.end(child)
	tr.end(root)
	self := tr.selfTimes()
	c, r := tr.spans[child-1], tr.spans[root-1]
	if want := (r.End - r.Start) - (c.End - c.Start); self[root] != want {
		t.Errorf("root self = %d, want %d", self[root], want)
	}
	if self[child] != c.End-c.Start {
		t.Errorf("child self = %d, want its whole duration %d", self[child], c.End-c.Start)
	}
	if !tr.selfTimesOK() {
		t.Error("selfTimesOK = false on a well-nested trace")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(0, "ignored", 0)) // must not panic
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {318, 0.95}, {1000, 0.99},
		{2450, 0.99}, {10_000, 0.999}, {839_389, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// The promise itself: at least ten samples beyond the rank.
		if p := tailPercentile(tc.n); p > 0.5 && tc.n-int(math.Ceil(p*float64(tc.n))) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), which the PR driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 7, 3, 10, 8, 15, 4, 9, 11, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 5.5 || q2 != 8.5 || q3 != 11.25 { // python: [5.5, 8.5, 11.25]
		t.Errorf("quartiles = %v %v %v, want 5.5 8.5 11.25", q1, q2, q3)
	}
	if got, want := relSpread(q1, q2, q3), (11.25-5.5)/8.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go and to
// the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `rafikibench list -json`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	b := benchmarkFile()
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n != 128 {
		t.Errorf("%d per-layer metrics, want exactly the 128 the README lists (limit 128)", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		t.Helper()
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(b.Command) > 32 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command of %d strings, run_seconds %d", len(b.Command), b.RunSeconds)
	}
	for name, axis := range axisOf() {
		if axis != axisHost && axis != axisSim && axis != axisCount {
			t.Errorf("%s: axis %q", name, axis)
		}
	}
}

// simView is what must repeat exactly for a seed: every sim metric and
// count, and every fact.
func simView(r *runResult) map[string]float64 {
	axis := axisOf()
	out := map[string]float64{}
	for name, m := range r.Metrics {
		if axis[name] != axisHost {
			out[name] = m.Value
		}
	}
	for name, v := range r.Facts {
		out["fact:"+name] = v
	}
	return out
}

func sameView(a, b map[string]float64) (string, bool) {
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return k, false
		}
	}
	return "", true
}

// TestWorkloads runs every workload small: one seed untraced with two
// repetitions (the run's own reps_identical check holds them to the same
// sim numbers; tune_dynamic has one repetition and runs twice instead),
// another seed untraced, and the first seed traced. Sim numbers must
// repeat for a seed, differ for another, and the traced run must
// reproduce the untraced run's; every metric must be there.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64, traced bool) *runResult {
				t.Helper()
				o := runOpts{seed: seed, scale: 0.01, seconds: 1, reps: 2}
				r, err := runOne(w.Name, o, traced, t.TempDir()+"/trace.json")
				if err != nil {
					t.Fatalf("seed %d traced=%v: %v", seed, traced, err)
				}
				for _, c := range r.Checks {
					if !c.OK {
						t.Errorf("seed %d traced=%v: check %s failed: %s", seed, traced, c.Name, c.Detail)
					}
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d defined", traced, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s missing, unitless or not finite: %+v", traced, d.Name, m)
					}
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0 on %s", d.Name, w.Name)
					}
				}
				if r.Attempted < 1 {
					t.Errorf("attempted = %d", r.Attempted)
				}
				return r
			}
			a1, b := simView(run(1, false)), simView(run(2, false))
			if w.Name == "tune_dynamic" {
				a2 := simView(run(1, false))
				if k, ok := sameView(a1, a2); !ok {
					t.Errorf("same seed, different %s: %v vs %v", k, a1[k], a2[k])
				}
			}
			if _, ok := sameView(a1, b); ok {
				t.Error("another seed gave identical sim numbers")
			}
			traced := run(1, true)
			tv := simView(traced)
			shared := 0
			for k := range tv {
				if _, ok := a1[k]; ok {
					shared++
				}
			}
			if k, ok := sameView(a1, tv); !ok {
				t.Errorf("traced run differs from the untraced run in %s: %v vs %v", k, a1[k], tv[k])
			}
			if shared == 0 {
				t.Error("traced and untraced runs share no sim number to compare")
			}
			if blob, err := os.ReadFile(traced.tracePath); err != nil || !json.Valid(blob) {
				t.Errorf("trace file %s: err=%v, valid JSON=%v", traced.tracePath, err, json.Valid(blob))
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed int64, host, sim float64) runResult {
		return runResult{Workload: "serve_steady", Seed: seed, Scale: 1, Metrics: map[string]metricValue{
			"host_ops_per_s": {Value: host, Unit: "1/s"},
			"sim_p50_us":     {Value: sim, Unit: "us"},
		}, Facts: map[string]float64{"shed_digest_lo32": 7}}
	}
	set := func(hosts ...float64) []runResult {
		var out []runResult
		for i, h := range hosts {
			out = append(out, mk(int64(i+1), h, 31.5))
		}
		return out
	}
	base := set(100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name               string
		b                  []runResult
		regressions, diffs int
		verdict            string
	}{
		{"same", set(100, 100, 101, 99, 100), 0, 0, "ok"},
		{"regression beyond the bound", set(70, 71, 69, 70, 72), 1, 0, "regression"},
		{"own spread wider than the bound", set(60, 100, 140, 70, 130), 0, 0, "unresolved"},
		{"sim number moved within its bound", []runResult{mk(1, 100, 31.6)}, 0, 1, "sim/count differs"},
	} {
		var out bytes.Buffer
		reg, diffs := compareRuns(base, tc.b, &out)
		if reg != tc.regressions || diffs != tc.diffs || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: %d regressions, %d diffs, want %d, %d and verdict %q in:\n%s", tc.name, reg, diffs, tc.regressions, tc.diffs, tc.verdict, out.String())
		}
	}
}
