package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkJSON is BENCHMARK.json's shape: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile renders BENCHMARK.json from the tables in spec.go.
func benchmarkFile() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./cmd/rafikibench", "run"},
		Paths:      []string{"cmd/rafikibench"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloadDefs {
		b.Workloads = append(b.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, metricJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	return b
}

func cmdList(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print BENCHMARK.json as generated from the metric tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		blob, err := json.MarshalIndent(benchmarkFile(), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(blob))
		return err
	}
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "  %-18s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; bound = share of the median it may worsen by):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-7s %-5s %-6s bound %4.0f%%  %s\n", m.Name, m.Unit, m.Axis, m.Better, 100*m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; no bound):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %-7s %-5s %-6s %s\n", m.Name, m.Unit, m.Axis, m.Better, m.Doc)
	}
	return nil
}

// loadRuns reads a result file, or every *.json result file of a
// directory (trace files excluded).
func loadRuns(path string) ([]runResult, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []runResult
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") || strings.Contains(filepath.Base(f), ".trace.") {
			continue
		}
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(blob, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, rf.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return runs, nil
}

// runKey identifies runs that must agree on every sim number and count.
type runKey struct {
	workload string
	seed     int64
	scale    float64
	traced   bool
}

// cmdCompare compares two sets of runs, A (the parent) and B (the
// change): one row per (workload, end-to-end metric) with both medians,
// quartiles and the bound. A row is a regression when B's median is
// worse than A's by more than the bound, unresolved when either set's
// own quartile spread exceeds the bound, ok otherwise. Sim metrics,
// counts and facts of runs with the same workload, seed, scale and mode
// must be identical. It fails on a regression or a sim difference.
func cmdCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: rafikibench compare A B (result files or directories of them)")
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	regressions, diffs := compareRuns(a, b, w)
	if regressions+diffs > 0 {
		return fmt.Errorf("%d regressions, %d sim/count differences", regressions, diffs)
	}
	return nil
}

// samples gathers metric name's values over the untraced runs of one
// workload. With a single run, the run's own chunk quartiles stand in
// for the set's spread.
func samples(runs []runResult, workload, name string) (vals []float64, q1, q2, q3 float64) {
	var only metricValue
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
				only = m
			}
		}
	}
	q1, q2, q3 = quartiles(vals)
	if len(vals) == 1 && only.N > 1 {
		q1, q3 = only.Q1, only.Q3
	}
	return vals, q1, q2, q3
}

func compareRuns(a, b []runResult, w io.Writer) (regressions, diffs int) {
	fmt.Fprintf(w, "%-17s %-18s %5s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "axis", "A median", "A quartiles", "B median", "B quartiles", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, m := range endToEnd {
			av, aq1, aq2, aq3 := samples(a, wl.Name, m.Name)
			bv, bq1, bq2, bq3 := samples(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			worse := (bq2 - aq2) / aq2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Axis == axisHost && (relSpread(aq1, aq2, aq3) > m.Bound || relSpread(bq1, bq2, bq3) > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				regressions++
			}
			fmt.Fprintf(w, "%-17s %-18s %5s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %7.1f%%  %s (%+.1f%%, n=%d/%d)\n",
				wl.Name, m.Name, m.Axis, aq2, aq1, aq3, bq2, bq1, bq3, 100*m.Bound, verdict, 100*worse, len(av), len(bv))
		}
	}

	// Sim metrics, counts and facts: identical for identical inputs.
	index := make(map[runKey]runResult, len(a))
	for _, r := range a {
		index[runKey{r.Workload, r.Seed, r.Scale, r.Traced}] = r
	}
	axis := axisOf()
	paired := 0
	for _, rb := range b {
		ra, ok := index[runKey{rb.Workload, rb.Seed, rb.Scale, rb.Traced}]
		if !ok {
			continue
		}
		paired++
		names := make([]string, 0, len(rb.Metrics)+len(rb.Facts))
		for name := range rb.Metrics {
			if axis[name] != axisHost {
				names = append(names, name)
			}
		}
		for name := range rb.Facts {
			names = append(names, "fact:"+name)
		}
		sort.Strings(names)
		for _, name := range names {
			var va, vb float64
			if fact, isFact := strings.CutPrefix(name, "fact:"); isFact {
				va, vb = ra.Facts[fact], rb.Facts[fact]
			} else {
				va, vb = ra.Metrics[name].Value, rb.Metrics[name].Value
			}
			if va != vb {
				diffs++
				fmt.Fprintf(w, "sim/count differs: %s seed %d traced=%v %s: A %.10g, B %.10g\n", rb.Workload, rb.Seed, rb.Traced, name, va, vb)
			}
		}
	}
	fmt.Fprintf(w, "%d run pairs share workload, seed, scale and mode; %d sim/count differences, %d regressions\n", paired, diffs, regressions)
	return regressions, diffs
}
