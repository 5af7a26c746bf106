package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricValue is one reported number. N, Q1 and Q3 describe the
// samples behind a host median (timed chunks); they are omitted where
// the value is a single measurement or a sim number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// checkResult is one output verification.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is one workload run, traced or not.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Reps     int     `json:"reps"`
	WallS    float64 `json:"wall_s"` // whole run, set-up and checks included
	// Slowdown is the box's speed during each phase of the run: the
	// reference kernel's median time over its nominal time (pace.go).
	// The end-to-end host times are wall times divided by their
	// phase's; per-layer host times are plain wall times.
	Slowdown  map[string]float64     `json:"slowdown"`
	Literals  map[string]any         `json:"literals"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []checkResult          `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Facts are sim numbers and counts beyond the named metrics that must
	// also repeat exactly for a seed (digests, the default arm's
	// throughput, sample sizes); compare holds them to that.
	Facts map[string]float64 `json:"facts"`
	Notes []string           `json:"notes,omitempty"`

	tracer    *tracer // traced runs: written to tracePath by the caller
	tracePath string
}

// envInfo records where a result file was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runResult `json:"runs"`
}

func currentEnv() envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func newRunResult(o runOpts, name string, traced bool) *runResult {
	return &runResult{
		Workload: name, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Traced: traced,
		Slowdown: map[string]float64{},
		Literals: map[string]any{},
		Metrics:  map[string]metricValue{},
		Facts:    map[string]float64{},
		Correct:  true,
	}
}

// set stores a single-valued metric.
func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// setSamples stores the median of xs with its quartiles and count.
func (r *runResult) setSamples(name string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	r.Metrics[name] = metricValue{Value: q2, Unit: unitOf(name), N: len(xs), Q1: q1, Q3: q3}
}

// setSeconds stores wall seconds xs as nominal seconds: divided by the
// slowdown of the phase they were measured in. setRates does the same
// for per-second rates.
func (r *runResult) setSeconds(name, phase string, xs []float64) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / r.slow(phase)
	}
	r.setSamples(name, out)
}

func (r *runResult) setRates(name, phase string, xs []float64) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * r.slow(phase)
	}
	r.setSamples(name, out)
}

func (r *runResult) slow(phase string) float64 {
	if s, ok := r.Slowdown[phase]; ok {
		return s
	}
	return 1
}

// check records one verification and folds it into Correct; the
// message describes the failure and is kept only when the check fails.
func (r *runResult) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	if !ok {
		r.Correct = false
	}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// finish fills every expected metric the run did not set with 0 (a
// layer the workload does not exercise) and checks all are finite.
func (r *runResult) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			r.set(m.Name, 0)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.check("finite:"+m.Name, false, "metric is %v", v.Value)
			r.set(m.Name, 0)
		}
	}
}

// memSnap is the allocator and collector state at one instant.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// liveHeapMB forces a collection and returns what survives it. Callers
// keep the system under test referenced until this returns.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rssPeakMB reads VmHWM from /proc/self/status (0 where unavailable).
func rssPeakMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// traceSession is a traced run's bookkeeping: the tracer, and the clock
// and memory state when tracing began. On an untraced run tr is nil,
// which every tracer method accepts.
type traceSession struct {
	tr    *tracer
	mem   memSnap
	start time.Time
}

// startTrace opens r's trace session; expectLeaves sizes the sampling
// of raw leaf spans.
func startTrace(r *runResult, seed int64, expectLeaves int) traceSession {
	if !r.Traced {
		return traceSession{}
	}
	r.tracer = newTracer(seed, expectLeaves)
	return traceSession{tr: r.tracer, mem: readMem(), start: time.Now()}
}

// finish fills the traced run's process rows.
func (s traceSession) finish(r *runResult) {
	after := readMem()
	r.set("gc.cycles", float64(after.gcs-s.mem.gcs))
	r.set("gc.pause_ms", float64(after.pauseNs-s.mem.pauseNs)/1e6)
	r.set("rss_peak_mb", rssPeakMB())
	r.set("trace.overhead_pct", 100*float64(s.tr.count)*spanCostNs()/float64(time.Since(s.start).Nanoseconds()))
}
