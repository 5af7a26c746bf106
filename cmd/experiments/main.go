// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints the reports, optionally writing them to
// a file (`make paper` diffs the default set's against the tracked
// internal/bench/testdata/paper-report.golden, EXPERIMENTS.md's source).
//
// Usage:
//
//	experiments [-only figure4,table1] [-ops N] [-seed N] [-out path]
//	            [-obs] [-obs-json path] [-workers N]
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

	suite := &bench.Suite{Opts: bench.DefaultPipelineOptions()}
	suite.Opts.Env.SampleOps = *ops
	suite.Opts.Env.Seed = *seed
	suite.Opts.Env.Workers = *workers

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

	held, total := 0, 0
	var failed []string // failing gate claims
	for _, e := range selected {
		log.Printf("running %s...", e.ID)
		start := time.Now()
		rep, err := e.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
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
		return fmt.Errorf("gate failed:\n%s", strings.Join(failed, "\n"))
	}
	return nil
}
