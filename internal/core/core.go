// Package core implements the Rafiki middleware itself: the five-stage
// workflow of Section 3.1. Workload characterization lives in
// internal/workload; this package wires the remaining stages together —
// ANOVA-based key-parameter identification, training-data collection,
// the DNN surrogate, GA configuration optimization, and the online
// controller that re-tunes the datastore when the observed workload
// shifts.
package core

import (
	"fmt"

	"rafiki/internal/config"
	"rafiki/internal/obs"
)

// Collector benchmarks one (workload, configuration) point and returns
// the average throughput in operations per second. Implementations
// must present a fresh server per sample — the paper resets the Docker
// container between data-collection events so no state leaks across
// samples.
type Collector interface {
	Sample(w Workload, cfg config.Config, seed int64) (float64, error)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(w Workload, cfg config.Config, seed int64) (float64, error)

// Sample implements Collector.
func (f CollectorFunc) Sample(w Workload, cfg config.Config, seed int64) (float64, error) {
	return f(w, cfg, seed)
}

// ObsCollector is a Collector whose samples emit telemetry. When
// Collect runs samples concurrently it hands each sample its own stage
// registry (see obs.Registry.Stage) instead of a shared one, then
// merges the stages in sample order — keeping the final snapshot
// byte-identical for every worker count. reg may be nil (telemetry
// disabled).
type ObsCollector interface {
	Collector
	SampleObs(w Workload, cfg config.Config, seed int64, reg *obs.Registry) (float64, error)
}

// Sample is one training observation S_i = {W_i, C_i, P_i}
// (Section 3.5).
type Sample struct {
	// Workload is the workload characterization W.
	Workload Workload
	// Config is the configuration C.
	Config config.Config
	// Throughput is the measured performance P in ops/s.
	Throughput float64
}

// Dataset is a collection of samples plus bookkeeping about dropped
// (noisy/faulted) observations, mirroring the paper's 220-collected /
// 200-kept dataset.
type Dataset struct {
	Samples []Sample
	Dropped int
}

// Features converts the dataset into surrogate training matrices using
// the space's key-parameter encoding (Equation 2). A row is the read
// ratio, then the scan ratio only when some sample has scans (an axis
// the data never varies would be a constant input), then the key
// parameters.
func (d Dataset) Features(space *config.Space) ([][]float64, []float64, error) {
	if len(d.Samples) == 0 {
		return nil, nil, fmt.Errorf("core: empty dataset")
	}
	scans := d.hasScans()
	xs := make([][]float64, 0, len(d.Samples))
	ys := make([]float64, 0, len(d.Samples))
	for i, s := range d.Samples {
		vec, err := space.FeatureVector(s.Workload.vector(scans), s.Config)
		if err != nil {
			return nil, nil, fmt.Errorf("core: sample %d: %w", i, err)
		}
		xs = append(xs, vec)
		ys = append(ys, s.Throughput)
	}
	return xs, ys, nil
}

// hasScans reports whether any sample's workload has range scans.
func (d Dataset) hasScans() bool {
	for _, s := range d.Samples {
		if s.Workload.ScanRatio != 0 {
			return true
		}
	}
	return false
}

// SplitByConfig partitions the dataset into train/test so that every
// sample of a held-out configuration lands in the test set — the
// paper's "unseen configurations" validation axis (Section 4.3).
// fraction is the test share; pick selects which configurations are
// held out (deterministic given the caller's RNG).
func (d Dataset) SplitByConfig(space *config.Space, testConfigs map[string]bool) (train, test Dataset) {
	for _, s := range d.Samples {
		if testConfigs[space.Describe(s.Config)] {
			test.Samples = append(test.Samples, s)
		} else {
			train.Samples = append(train.Samples, s)
		}
	}
	return train, test
}

// SplitByWorkload partitions so that held-out workloads only appear
// in the test set — the "unseen workloads" axis.
func (d Dataset) SplitByWorkload(testWorkloads map[Workload]bool) (train, test Dataset) {
	for _, s := range d.Samples {
		if testWorkloads[s.Workload] {
			test.Samples = append(test.Samples, s)
		} else {
			train.Samples = append(train.Samples, s)
		}
	}
	return train, test
}

// ConfigKeys returns the distinct configuration descriptions present.
func (d Dataset) ConfigKeys(space *config.Space) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range d.Samples {
		k := space.Describe(s.Config)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Workloads returns the distinct workload characterizations present.
func (d Dataset) Workloads() []Workload {
	seen := make(map[Workload]bool)
	var out []Workload
	for _, s := range d.Samples {
		if !seen[s.Workload] {
			seen[s.Workload] = true
			out = append(out, s.Workload)
		}
	}
	return out
}
