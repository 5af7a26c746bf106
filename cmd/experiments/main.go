// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints the reports, optionally writing them to
// a file (`make paper` diffs the default set's against the tracked
// internal/bench/testdata/paper-report.golden, EXPERIMENTS.md's source).
//
// Usage:
//
//	experiments [-only figure4,table1] [-ops N] [-seed N] [-out path]
//	            [-obs] [-obs-json path] [-workers N] [-seeds N]
//
// The experiments, their IDs and their running order are the table
// bench.Experiments(). Without -only every experiment that is not
// opt-in runs; netsim, chaos, ring, frontdoor, slo and workloadmix are
// opt-in and run only when -only names them. Each report ends with its
// claims, and the run with a "claims: N of M hold" line. The command
// exits nonzero when an experiment errors or a gate claim (chaos, ring,
// slo and workloadmix carry them) fails. The first experiment that
// needs a trained pipeline (figure4 for Cassandra's 220 samples, table4
// for ScyllaDB's) builds it inside its own elapsed time.
//
// With -seeds n the set runs at seeds -seed .. -seed+n-1 and the
// output is bench.OverSeeds' rendering instead of the reports: every
// claim as "holds on k of n" with its verdict at each seed, and a claim
// that reads one number also as median [min..max] judged on the median
// (`make paper-seeds` diffs it against the tracked
// internal/bench/testdata/paper-seeds.golden).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"rafiki/internal/bench"
	"rafiki/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	var (
		only    = flag.String("only", "", "comma-separated experiment IDs to run (default: all but the opt-in ones)")
		ops     = flag.Int("ops", 100_000, "operations per benchmark sample")
		seed    = flag.Int64("seed", 1, "base seed")
		out     = flag.String("out", "", "also write rendered reports to this file")
		showObs = flag.Bool("obs", false, "print the observability dashboard after the experiments")
		obsJSON = flag.String("obs-json", "", "write the observability snapshot as JSON to this file")
		workers = flag.Int("workers", 0, "worker bound for every parallel stage (0 = one per CPU, 1 = serial); results are identical for any value")
		seeds   = flag.Int("seeds", 0, "run the set at this many seeds from -seed on and print the claims' verdicts over them instead of the reports")
	)
	flag.Parse()

	selected, err := bench.Select(*only)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}

	newSuite := func(seed int64) *bench.Suite {
		suite := &bench.Suite{Opts: bench.DefaultPipelineOptions()}
		suite.Opts.Env.SampleOps = *ops
		suite.Opts.Env.Seed = seed
		suite.Opts.Env.Workers = *workers
		return suite
	}
	if *seeds > 0 {
		seedList := make([]int64, *seeds)
		runs := make([][]bench.Report, *seeds)
		for i := range seedList {
			seedList[i] = *seed + int64(i)
			if runs[i], err = runSet(selected, newSuite(seedList[i]), io.Discard); err != nil {
				return fmt.Errorf("seed %d: %w", seedList[i], err)
			}
		}
		text, err := bench.OverSeeds(seedList, runs)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, text)
		return err
	}
	suite := newSuite(*seed)

	// Instrumentation is opt-in: a nil registry costs one predictable
	// branch per hot-path event.
	if *showObs || *obsJSON != "" {
		reg := obs.NewRegistry()
		suite.Opts.Env.Obs = reg
		defer func() {
			if *showObs {
				fmt.Fprintf(w, "%s\n", reg.Snapshot().Dashboard())
			}
			if *obsJSON != "" {
				blob, err := reg.Snapshot().JSON()
				if err == nil {
					err = os.WriteFile(*obsJSON, blob, 0o644)
				}
				if err != nil {
					log.Printf("obs snapshot: %v", err)
				}
			}
		}()
	}

	_, err = runSet(selected, suite, w)
	return err
}

// runSet runs the selected experiments on suite, writing each report
// and then the "claims: N of M hold" line to w, and returns the reports.
// It fails when an experiment errors or a gate claim does not hold.
func runSet(selected []bench.Experiment, suite *bench.Suite, w io.Writer) ([]bench.Report, error) {
	held, total := 0, 0
	var failed []string // failing gate claims
	reps := make([]bench.Report, 0, len(selected))
	for _, e := range selected {
		log.Printf("running %s (seed %d)...", e.ID, suite.Opts.Env.Seed)
		start := time.Now()
		rep, err := e.Run(suite)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		reps = append(reps, rep)
		fmt.Fprintf(w, "%s\n(elapsed %s)\n\n", rep.Render(), time.Since(start).Round(time.Millisecond))
		total += len(rep.Claims)
		for _, c := range rep.Claims {
			if c.Holds {
				held++
			} else if c.Gate {
				failed = append(failed, e.ID+": "+c.Text)
			}
		}
	}
	fmt.Fprintf(w, "claims: %d of %d hold\n", held, total)
	if len(failed) > 0 {
		return nil, fmt.Errorf("gate failed:\n%s", strings.Join(failed, "\n"))
	}
	return reps, nil
}
