// Command rafiki runs the Rafiki tuning pipeline end to end against the
// simulated datastore: optional ANOVA key-parameter identification,
// training-data collection, surrogate training, and a GA search for the
// best configuration at a target workload.
//
// Usage:
//
//	rafiki [-db cassandra|scylladb] [-rr 0.9] [-identify] [-ops N]
//	       [-configs N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rafiki/internal/config"
	"rafiki/internal/core"
	"rafiki/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rafiki: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		db       = flag.String("db", "cassandra", "datastore to tune: cassandra or scylladb")
		rr       = flag.Float64("rr", 0.9, "target workload read ratio in [0,1]")
		identify = flag.Bool("identify", false, "run ANOVA key-parameter identification instead of using the published key set")
		ops      = flag.Int("ops", 100_000, "operations per benchmark sample")
		configs  = flag.Int("configs", 20, "configurations in the training dataset")
		seed     = flag.Int64("seed", 1, "base seed")
		metric   = flag.String("metric", "throughput", "performance metric to tune: throughput or latency (inverse p99)")
		saveTo   = flag.String("save-model", "", "write the trained surrogate to this path")
		loadFrom = flag.String("load-model", "", "skip the offline pipeline and load a surrogate from this path")
	)
	flag.Parse()

	collector := sim.Default()
	collector.SampleOps = *ops
	collector.Seed = *seed
	if err := collector.Validate(); err != nil {
		return err
	}
	switch *db {
	case "cassandra":
		collector.Space = config.Cassandra()
	case "scylladb":
		collector.Space = config.ScyllaDB()
	default:
		return fmt.Errorf("unknown datastore %q", *db)
	}
	space := collector.Space
	switch *metric {
	case "throughput":
	case "latency":
		// Section 3.8: the DBA picks the performance metric; the
		// latency objective maximizes inverse p99.
		collector = collector.InverseP99()
	default:
		return fmt.Errorf("unknown metric %q", *metric)
	}

	if *loadFrom != "" {
		return runFromSavedModel(*loadFrom, space, collector, *rr, *seed)
	}

	opts := core.DefaultTunerOptions()
	opts.SkipIdentify = !*identify
	opts.Collect.Configs = *configs
	opts.Collect.Seed = *seed
	opts.Model.Seed = *seed
	opts.GA.Seed = *seed

	tuner, err := core.NewTuner(collector, space, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stdout, "preparing tuner for %s (collect %d configs x %d workloads, train %d-net surrogate)...\n",
		space.Name, *configs, len(opts.Collect.Workloads), opts.Model.EnsembleSize)
	if err := tuner.Prepare(); err != nil {
		return err
	}
	if id := tuner.Identification(); id != nil {
		fmt.Println("ANOVA-selected key parameters:")
		for i, e := range id.Ranking.Entries {
			if i >= len(id.KeyNames) {
				break
			}
			fmt.Printf("  %d. %-36s std dev %.0f ops/s\n", i+1, e.Factor, e.ResponseStdDev)
		}
	}

	if *saveTo != "" {
		if err := tuner.Surrogate().Save(*saveTo); err != nil {
			return err
		}
		fmt.Printf("saved trained surrogate to %s\n", *saveTo)
	}

	rec, err := tuner.Recommend(core.RR(*rr))
	if err != nil {
		return err
	}
	fmt.Printf("\nrecommendation for RR=%.0f%% (%d surrogate evaluations):\n  %s\n",
		*rr*100, rec.Evaluations, space.Describe(rec.Config))
	fmt.Printf("predicted throughput: %.0f ops/s\n", rec.Predicted)

	defTput, err := collector.Sample(core.RR(*rr), config.Config{}, *seed+999_001)
	if err != nil {
		return err
	}
	recTput, err := collector.Sample(core.RR(*rr), rec.Config, *seed+999_002)
	if err != nil {
		return err
	}
	unit := "ops/s"
	if *metric == "latency" {
		unit = "1/s (inverse p99)"
	}
	fmt.Printf("measured: default %.0f %s, recommended %.0f %s (%+.1f%%)\n",
		defTput, unit, recTput, unit, 100*(recTput/defTput-1))
	return nil
}

// runFromSavedModel answers a tuning query from a persisted surrogate
// without re-running the offline pipeline.
func runFromSavedModel(path string, space *config.Space, collector core.Collector, rr float64, seed int64) error {
	sur, err := core.LoadSurrogate(path, space)
	if err != nil {
		return err
	}
	gaOpts := core.DefaultTunerOptions().GA
	gaOpts.Seed = seed
	rec, err := sur.Optimize(core.RR(rr), gaOpts)
	if err != nil {
		return err
	}
	fmt.Printf("recommendation for RR=%.0f%% from %s (%d surrogate evaluations):\n  %s\n",
		rr*100, path, rec.Evaluations, space.Describe(rec.Config))
	defTput, err := collector.Sample(core.RR(rr), config.Config{}, seed+999_001)
	if err != nil {
		return err
	}
	recTput, err := collector.Sample(core.RR(rr), rec.Config, seed+999_002)
	if err != nil {
		return err
	}
	fmt.Printf("measured: default %.0f, recommended %.0f (%+.1f%%)\n",
		defTput, recTput, 100*(recTput/defTput-1))
	return nil
}
