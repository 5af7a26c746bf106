// Command rafikibench is the repository's one benchmark: four workloads
// that cover the tuning path and the serving path, ten end-to-end
// metrics measured on untraced runs, and 128 per-layer metrics measured
// on separate traced runs of the same seed by timing, from this
// package's own files, the calls into each layer's public functions.
// It verifies the outputs it measures. See README.md.
//
// Usage:
//
//	rafikibench run [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1|2]
//	                [-scale F] [-reps N] [-out FILE] [-trace-out FILE] [-cpuprofile FILE]
//	rafikibench compare A B      (result files or directories of them)
//	rafikibench list [-json]
//
// The PR driver runs `go run ./cmd/rafikibench run --workload W --seed N
// --seconds S --trace T` from the repository root and reads the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: rafikibench run|compare|list [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	case "list":
		err = cmdList(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want run, compare or list)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rafikibench:", err)
		os.Exit(1)
	}
}

// runOpts are the knobs one workload run takes.
type runOpts struct {
	seed    int64
	scale   float64
	seconds float64
	reps    int // 0 = as many as fit in seconds
}

// scaleInt scales a literal by -scale, never below floor.
func (o runOpts) scaleInt(n, floor int) int {
	v := int(float64(n) * o.scale)
	if v < floor {
		v = floor
	}
	return v
}

// minSetups is how many times a run sets up, so that setup_s is a
// median; tiny scales (tests) set up once.
func (o runOpts) minSetups() int {
	if o.scale < 0.1 {
		return 1
	}
	return 5
}

// moreReps decides whether repetition number rep (0-based) runs: always
// the first; then as long as -reps allows, or, without -reps, as long
// as a typical repetition still fits in what is left of -seconds.
func (o runOpts) moreReps(rep int, timed time.Duration, typical float64) bool {
	if rep == 0 {
		return true
	}
	if o.reps > 0 {
		return rep < o.reps
	}
	return timed.Seconds()+typical <= o.seconds
}

// runners maps a workload name to its implementation.
var runners = map[string]func(o runOpts, traced bool) (*runResult, error){
	"tune_dynamic":     runTune,
	"serve_steady":     func(o runOpts, traced bool) (*runResult, error) { return runServe(o, traced, false) },
	"serve_chaos":      func(o runOpts, traced bool) (*runResult, error) { return runServe(o, traced, true) },
	"engine_crud_scan": runEngine,
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "all", "workload name, or all")
		seed       = fs.Int64("seed", 1, "seed every input is generated from")
		seconds    = fs.Float64("seconds", defaultRunSeconds, "how long one untraced run measures; decides how many repetitions fit")
		trace      = fs.Int("trace", 2, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), 2 = both")
		scale      = fs.Float64("scale", 1, "multiplies every workload's size; sim numbers are only comparable at equal scale")
		reps       = fs.Int("reps", 0, "repetitions per untraced run (0 = as many as fit in -seconds, at least one)")
		out        = fs.String("out", "", "result file (default cmd/rafikibench/out/<workload>-seed<N>.json)")
		traceOut   = fs.String("trace-out", "", "Chrome trace-event file of the traced run (default next to -out)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole command")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *seconds <= 0 || *trace < 0 || *trace > 2 {
		return fmt.Errorf("need -scale > 0, -seconds > 0 and -trace in 0..2")
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if _, ok := runners[*workload]; ok {
		names = []string{*workload}
	} else {
		return fmt.Errorf("unknown workload %q (rafikibench list names them)", *workload)
	}
	if *out == "" {
		*out = filepath.Join("cmd", "rafikibench", "out", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}
	if *traceOut == "" {
		*traceOut = (*out)[:len(*out)-len(filepath.Ext(*out))] + ".trace.json"
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w (%v)", err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rafikibench: cpuprofile:", err)
			}
		}()
	}

	o := runOpts{seed: *seed, scale: *scale, seconds: *seconds, reps: *reps}
	file := resultFile{Env: currentEnv()}
	var last contractLine
	for _, name := range names {
		line := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
		for _, traced := range []bool{false, true} {
			if (traced && *trace == 0) || (!traced && *trace == 1) {
				continue
			}
			start := time.Now()
			tracePath := ""
			if traced {
				tracePath = *traceOut
				if len(names) > 1 {
					tracePath = (*traceOut)[:len(*traceOut)-len(".json")] + "." + name + ".json"
				}
			}
			res, err := runOne(name, o, traced, tracePath)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.WallS = time.Since(start).Seconds()
			printRun(os.Stdout, res)
			file.Runs = append(file.Runs, *res)
			line.add(res)
		}
		last = line
		if len(names) > 1 {
			if err := last.print(os.Stdout); err != nil {
				return err
			}
		}
	}
	blob, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", *out)
	// The contract: one JSON object as the last line of standard output.
	if err := last.print(os.Stdout); err != nil {
		return err
	}
	if !last.Correct {
		return fmt.Errorf("output verification failed (see the checks above)")
	}
	return nil
}

// runOne runs one workload once and, for a traced run, writes the
// trace file after the measurement is over.
func runOne(name string, o runOpts, traced bool, tracePath string) (*runResult, error) {
	res, err := runners[name](o, traced)
	if err != nil {
		return nil, err
	}
	res.finish()
	if traced && res.tracer != nil {
		if err := res.tracer.write(tracePath); err != nil {
			return nil, err
		}
		res.tracePath = tracePath
		res.Notes = append(res.Notes, "trace file: "+tracePath)
		res.check("trace_self_times", res.tracer.selfTimesOK(), "a span's children cover more than the span")
	}
	return res, nil
}

// contractMetric and contractLine are the PR driver's result format.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

func (l *contractLine) add(r *runResult) {
	l.Correct = l.Correct && r.Correct
	if !r.Traced || l.Attempted == 0 {
		l.Attempted, l.Failed = r.Attempted, r.Failed
	}
	for name, m := range r.Metrics {
		l.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
}

func (l contractLine) print(w *os.File) error {
	blob, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w *os.File, r *runResult) {
	mode := "untraced: end-to-end metrics"
	defs := endToEnd
	if r.Traced {
		mode = "traced: per-layer metrics"
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d scale=%g reps=%d (%s) %.1fs, box slowdown %v\n", r.Workload, r.Seed, r.Scale, r.Reps, mode, r.WallS, r.Slowdown)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (median of n=%d, quartiles %.6g..%.6g)", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "%-28s %16.6g %-7s %-5s%s\n", d.Name, m.Value, m.Unit, d.Axis, extra)
	}
	facts := make([]string, 0, len(r.Facts))
	for k := range r.Facts {
		facts = append(facts, k)
	}
	sort.Strings(facts)
	for _, k := range facts {
		fmt.Fprintf(w, "#   fact %-32s %.10g\n", k, r.Facts[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "#   note %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "#   check %-28s %s %s\n", c.Name, verdict, c.Detail)
	}
	fmt.Fprintf(w, "#   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}
