// Multiserver: the paper's two-server experiment (Section 4.9) — apply
// Rafiki's single-server recommendation to a replicated two-node
// cluster with an extra client shooter and compare the improvement over
// the default configuration on both deployments.
package main

import (
	"fmt"
	"log"

	"rafiki"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	space := rafiki.CassandraSpace()
	sampler := rafiki.SimulatorConfig{SampleOps: 50_000, Seed: 4}
	collector := rafiki.NewSimulatorCollector(sampler)

	opts := rafiki.DefaultTunerOptions()
	opts.SkipIdentify = true
	opts.Collect.Configs = 12
	opts.Model.EnsembleSize = 6
	opts.Model.BR.Epochs = 60
	tuner, err := rafiki.NewTuner(collector, space, opts)
	if err != nil {
		return err
	}
	fmt.Println("training the surrogate...")
	if err := tuner.Prepare(); err != nil {
		return err
	}

	// The same sampler, pointed at a fresh replicated cluster per sample.
	one := rafiki.NewSimulatorCollector(sampler.OnCluster(1, 1))
	two := rafiki.NewSimulatorCollector(sampler.OnCluster(2, 2))

	fmt.Printf("%-10s %-12s %-12s %-9s %-12s %-12s %s\n",
		"workload", "1-node def", "1-node raf", "improve", "2-node def", "2-node raf", "improve")
	for i, rr := range []float64{0.1, 0.5, 1.0} {
		rec, err := tuner.Recommend(rafiki.RR(rr))
		if err != nil {
			return err
		}
		seed := int64(1000 * (i + 1))
		oneDef, err := one.Sample(rafiki.RR(rr), nil, seed)
		if err != nil {
			return err
		}
		oneRaf, err := one.Sample(rafiki.RR(rr), rec.Config, seed+1)
		if err != nil {
			return err
		}
		twoDef, err := two.Sample(rafiki.RR(rr), nil, seed+2)
		if err != nil {
			return err
		}
		twoRaf, err := two.Sample(rafiki.RR(rr), rec.Config, seed+3)
		if err != nil {
			return err
		}
		fmt.Printf("RR=%-6.0f%% %-12.0f %-12.0f %-+8.1f%% %-12.0f %-12.0f %+.1f%%\n",
			rr*100, oneDef, oneRaf, 100*(oneRaf/oneDef-1), twoDef, twoRaf, 100*(twoRaf/twoDef-1))
	}
	fmt.Println("\n(the paper reports improvements carrying over to the cluster and growing with RR)")
	return nil
}
