package bench

import (
	"fmt"
	"math/rand"

	"rafiki/internal/config"
	"rafiki/internal/core"
)

// SearchResult is the outcome of a measured (non-surrogate) search.
type SearchResult struct {
	// Best is the winning configuration and BestThroughput its measured
	// performance.
	Best           config.Config
	BestThroughput float64
	// Samples counts real benchmark runs spent.
	Samples int
}

// GridConfigs returns the paper's exhaustive-search grid: 80
// configurations per workload (Section 4.8 tests 80 configuration sets
// for each of three workloads).
func GridConfigs() []config.Config {
	return keyGrid(config.Cassandra(),
		[]float64{config.CompactionSizeTiered, config.CompactionLeveled}, // compaction_strategy
		[]float64{32, 64},                    // concurrent_writes
		[]float64{32, 512, 1024, 1536, 2048}, // file_cache_size_in_mb
		[]float64{0.11, 0.35},                // memtable_cleanup_threshold
		[]float64{2, 8})                      // concurrent_compactors
}

// keyGrid is the cross product of one level list per key parameter of
// space, in KeyNames order, the first parameter varying slowest.
func keyGrid(space *config.Space, levels ...[]float64) []config.Config {
	out := []config.Config{{}}
	for i, name := range space.KeyNames {
		var next []config.Config
		for _, cfg := range out {
			for _, v := range levels[i] {
				c := cfg.Clone()
				c[name] = v
				next = append(next, c)
			}
		}
		out = next
	}
	return out
}

// GridSearch measures every grid configuration at the given workload
// and returns the best — the paper's "theoretically best achievable"
// reference point.
func GridSearch(c core.Collector, w core.Workload, configs []config.Config, seed int64) (SearchResult, error) {
	if len(configs) == 0 {
		return SearchResult{}, fmt.Errorf("bench: empty grid")
	}
	var res SearchResult
	for i, cfg := range configs {
		tput, err := c.Sample(w, cfg, seed+int64(i))
		if err != nil {
			return SearchResult{}, fmt.Errorf("bench: grid point %d: %w", i, err)
		}
		res.Samples++
		if tput > res.BestThroughput {
			res.BestThroughput = tput
			res.Best = cfg.Clone()
		}
	}
	return res, nil
}

// GreedySearch tunes one parameter at a time by measured sweeps,
// holding the others fixed — the baseline Section 4.6 argues cannot
// find the optimum because parameters interdepend.
func GreedySearch(c core.Collector, space *config.Space, w core.Workload, seed int64) (SearchResult, error) {
	keys, err := space.KeyParams()
	if err != nil {
		return SearchResult{}, err
	}
	current := config.Config{}
	var res SearchResult
	best, err := c.Sample(w, current, seed)
	if err != nil {
		return SearchResult{}, err
	}
	res.Samples++
	for _, p := range keys {
		bestV, found := 0.0, false
		for _, v := range p.Sweep {
			trial := current.Clone()
			trial[p.Name] = v
			seed++
			tput, err := c.Sample(w, trial, seed)
			if err != nil {
				return SearchResult{}, fmt.Errorf("bench: greedy %s=%v: %w", p.Name, v, err)
			}
			res.Samples++
			if tput > best {
				best = tput
				bestV = v
				found = true
			}
		}
		if found {
			current[p.Name] = bestV
		}
	}
	res.Best = current
	res.BestThroughput = best
	return res, nil
}

// RandomSearch measures n uniformly random key-parameter configurations
// and keeps the best, a budget-matched baseline for the GA ablation.
func RandomSearch(c core.Collector, space *config.Space, w core.Workload, n int, seed int64) (SearchResult, error) {
	if n <= 0 {
		return SearchResult{}, fmt.Errorf("bench: random search needs n > 0, got %d", n)
	}
	keys, err := space.KeyParams()
	if err != nil {
		return SearchResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var res SearchResult
	for i := 0; i < n; i++ {
		cfg := make(config.Config, len(keys))
		for _, p := range keys {
			cfg[p.Name] = p.Clamp(p.Min + rng.Float64()*(p.Max-p.Min))
		}
		tput, err := c.Sample(w, cfg, seed+int64(i)+1)
		if err != nil {
			return SearchResult{}, err
		}
		res.Samples++
		if tput > res.BestThroughput {
			res.BestThroughput = tput
			res.Best = cfg
		}
	}
	return res, nil
}
