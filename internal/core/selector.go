package core

import (
	"fmt"

	"rafiki/internal/anova"
	"rafiki/internal/config"
	"rafiki/internal/par"
)

// IdentifyOptions tunes the important-parameter-identification stage.
type IdentifyOptions struct {
	// ReadRatio is the workload under which parameters are swept.
	ReadRatio float64
	// MinK and MaxK bound the elbow search for the key-parameter count
	// (the paper lands on 5 for Cassandra).
	MinK, MaxK int
	// Repeats is how many benchmark repetitions back each sweep value
	// (1 in the paper's protocol; more enables a proper F test).
	Repeats int
	// Seed derives per-sample seeds.
	Seed int64
}

// DefaultIdentifyOptions mirrors the paper's protocol.
func DefaultIdentifyOptions() IdentifyOptions {
	return IdentifyOptions{ReadRatio: 0.5, MinK: 3, MaxK: 8, Repeats: 1}
}

// Workload returns the sweep workload the options describe.
func (o IdentifyOptions) Workload() Workload {
	return RR(o.ReadRatio)
}

// Identification is the outcome of the ANOVA stage.
type Identification struct {
	// Ranking holds the full ANOVA table for every parameter, sorted by
	// descending response standard deviation — Figure 5's content.
	Ranking anova.Ranking
	// KeyNames is the selected key-parameter set.
	KeyNames []string
}

// IdentifyKeyParameters runs the paper's one-parameter-at-a-time ANOVA
// protocol (Section 3.4): each parameter is varied over its sweep
// values while the others stay at defaults, parameters are ranked by
// how strongly the response moves, and the elbow rule picks k.
// Parameters the engine's auto-tuner ignores are skipped, matching the
// ScyllaDB adjustment of Section 4.10.
func IdentifyKeyParameters(c Collector, space *config.Space, opts IdentifyOptions) (Identification, error) {
	return identifyKeyParameters(c, space, opts, par.Options{})
}

// identifyKeyParameters is IdentifyKeyParameters as one stage of a
// pipeline: stage carries the worker bound (0 = one per CPU; the result
// is the same at any count) and the registry the samples' telemetry is
// staged into.
func identifyKeyParameters(c Collector, space *config.Space, opts IdentifyOptions, stage par.Options) (Identification, error) {
	if opts.Repeats < 1 {
		opts.Repeats = 1
	}
	if err := opts.Workload().Validate(); err != nil {
		return Identification{}, fmt.Errorf("core: identify workload: %w", err)
	}
	// The sweep's samples and their seeds are laid out sequentially up
	// front, exactly as a serial loop would number them; the samples
	// then fan out and land in their groups in that order.
	var tasks []sampleTask
	var slots []*float64 // where each task's measurement lands
	sweeps := make(map[string][][]float64)
	seed := opts.Seed
	for _, p := range space.Params() {
		if space.Ignored(p.Name) || len(p.Sweep) < 2 {
			continue
		}
		groups := make([][]float64, len(p.Sweep))
		for g, v := range p.Sweep {
			groups[g] = make([]float64, opts.Repeats)
			for r := range groups[g] {
				seed++
				tasks = append(tasks, sampleTask{w: opts.Workload(), cfg: config.Config{p.Name: v}, seed: seed})
				slots = append(slots, &groups[g][r])
			}
		}
		sweeps[p.Name] = groups
	}
	tputs, err := runSamples(c, tasks, stage, func(i int, err error) error {
		return fmt.Errorf("core: sweeping %v: %w", tasks[i].cfg, err)
	})
	if err != nil {
		return Identification{}, err
	}
	for i, tput := range tputs {
		*slots[i] = tput
	}
	ranking, err := anova.Rank(sweeps)
	if err != nil {
		return Identification{}, err
	}
	// The elbow runs on the group-deduplicated ranking: parameters that
	// control the same mechanism count once (Section 4.5 consolidates
	// the memtable-flush parameters before settling on k=5).
	deduped := dedupeRanking(space, ranking)
	k := deduped.Elbow(opts.MinK, opts.MaxK)
	return Identification{
		Ranking:  ranking,
		KeyNames: selectKeyNames(space, ranking, k),
	}, nil
}

// dedupeRanking collapses each mechanism group to its first (highest
// variance) entry.
func dedupeRanking(space *config.Space, ranking anova.Ranking) anova.Ranking {
	var out anova.Ranking
	groupSeen := make(map[string]bool)
	for _, e := range ranking.Entries {
		p, ok := space.Param(e.Factor)
		if ok && p.Group != "" {
			if groupSeen[p.Group] {
				continue
			}
			groupSeen[p.Group] = true
		}
		out.Entries = append(out.Entries, e)
	}
	return out
}

// selectKeyNames walks the ranking and picks k key parameters, keeping
// one representative per mechanism group. This mirrors Section 4.5:
// several memtable parameters jointly control flushing, so Rafiki
// includes only memtable_cleanup_threshold and moves on to the next
// distinct parameter.
func selectKeyNames(space *config.Space, ranking anova.Ranking, k int) []string {
	var out []string
	groupSeen := make(map[string]bool)
	chosen := make(map[string]bool)
	for _, e := range ranking.Entries {
		if len(out) >= k {
			break
		}
		name := e.Factor
		p, ok := space.Param(name)
		if !ok || chosen[name] {
			continue
		}
		if p.Group != "" {
			if groupSeen[p.Group] {
				continue
			}
			groupSeen[p.Group] = true
			if rep := space.GroupRepresentative(p.Group); rep != "" {
				if _, ok := space.Param(rep); ok && !chosen[rep] {
					out = append(out, rep)
					chosen[rep] = true
					continue
				}
			}
		}
		out = append(out, name)
		chosen[name] = true
	}
	return out
}
