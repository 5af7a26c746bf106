package bench

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Experiment is one entry of the experiment table.
type Experiment struct {
	// ID names the experiment on the command line and in its report.
	ID string
	// OptIn experiments run only when named: they never join the
	// implicit "run everything" set.
	OptIn bool
	// Run regenerates the artifact. An error means the harness failed;
	// verdicts, gates included, are the report's Claims.
	Run func(*Suite) (Report, error)
}

// Suite is what the experiments of one run share: the options that size
// them and the two offline pipelines, each built the first time an
// experiment asks for it.
type Suite struct {
	// Opts sizes every experiment and both pipelines.
	Opts PipelineOptions

	cassandra, scylla *Pipeline
}

// Cassandra returns the suite's Cassandra pipeline.
func (s *Suite) Cassandra() (*Pipeline, error) {
	return s.pipeline(&s.cassandra, NewCassandraPipeline)
}

// Scylla returns the suite's ScyllaDB pipeline (Section 4.10's key set).
func (s *Suite) Scylla() (*Pipeline, error) {
	return s.pipeline(&s.scylla, NewScyllaPipeline)
}

func (s *Suite) pipeline(slot **Pipeline, build func(PipelineOptions) (*Pipeline, error)) (*Pipeline, error) {
	if *slot == nil {
		p, err := build(s.Opts)
		if err != nil {
			return nil, err
		}
		*slot = p
	}
	return *slot, nil
}

// The three shapes an experiment function comes in.
func onEnv(f func(Env) (Report, error)) func(*Suite) (Report, error) {
	return func(s *Suite) (Report, error) { return f(s.Opts.Env) }
}

func onPipeline(get func(*Suite) (*Pipeline, error), f func(*Pipeline) (Report, error)) func(*Suite) (Report, error) {
	return func(s *Suite) (Report, error) {
		p, err := get(s)
		if err != nil {
			return Report{}, err
		}
		return f(p)
	}
}

func onCassandra(f func(*Pipeline) (Report, error)) func(*Suite) (Report, error) {
	return onPipeline((*Suite).Cassandra, f)
}

func onScylla(f func(*Pipeline) (Report, error)) func(*Suite) (Report, error) {
	return onPipeline((*Suite).Scylla, f)
}

// Experiments lists every experiment in running order: the ones that
// need no trained pipeline, the Cassandra pipeline's, the ScyllaDB
// pipeline's. cmd/experiments, the root benchmarks and the docs all
// read this table; an experiment exists once it has a row here.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "figure3", Run: onEnv(Figure3)},
		{ID: "figure5", Run: onEnv(Figure5)},
		{ID: "figure6", Run: onEnv(Figure6)},
		{ID: "figure10", Run: onEnv(Figure10)},
		{ID: "faultinjection", Run: onEnv(FaultInjection)},
		// netsim replays the standard workload under simulated network
		// conditions (flaky links, duplication, delay, partitions).
		{ID: "netsim", OptIn: true, Run: onEnv(NetSim)},
		// chaos gates on a corruption-free consistency violation.
		{ID: "chaos", OptIn: true, Run: onEnv(Chaos)},
		// ring gates on an acked write becoming unreadable or a
		// rebalance failing to drain.
		{ID: "ring", OptIn: true, Run: onEnv(Ring)},
		{ID: "frontdoor", OptIn: true, Run: onEnv(FrontDoor)},
		// slo gates on an SLO miss, nondeterministic shedding, or a
		// session-guarantee violation.
		{ID: "slo", OptIn: true, Run: onEnv(SLO)},
		// workloadmix trains its own pipeline over a read-ratio x
		// scan-ratio grid and gates on the tuner discovering the
		// leveled-compaction preference as scans rise.
		{ID: "workloadmix", OptIn: true, Run: func(s *Suite) (Report, error) { return WorkloadMix(s.Opts) }},

		{ID: "figure4", Run: onCassandra(Figure4)},
		{ID: "table1", Run: onCassandra(Table1)},
		{ID: "table2", Run: onCassandra(Table2)},
		{ID: "figure7", Run: onCassandra(Figure7)},
		{ID: "figure8", Run: onCassandra(Figure8)},
		{ID: "figure9", Run: onCassandra(Figure9)},
		{ID: "searchspeed", Run: onCassandra(SearchSpeed)},
		{ID: "table3", Run: onCassandra(Table3)},
		{ID: "ablation-search", Run: onCassandra(AblationSearch)},
		{ID: "ablation-trainer", Run: onCassandra(AblationTrainer)},
		{ID: "ablation-model", Run: onCassandra(AblationModel)},
		{ID: "ablation-surrogate-search", Run: onCassandra(AblationSurrogateSearch)},
		{ID: "crossworkload", Run: onCassandra(CrossWorkloadPenalty)},
		{ID: "dynamic", Run: onCassandra(DynamicTrace)},

		{ID: "table4", Run: onScylla(Table4)},
		{ID: "table2-scylla", Run: onScylla(table2Scylla)},
	}
}

// table2Scylla is Table2 on the ScyllaDB pipeline, under its own ID,
// held to the paper's ScyllaDB error (6.9-7.8%) on both axes.
func table2Scylla(p *Pipeline) (Report, error) {
	rep, err := table2(p, 7.8, 7.8)
	if err != nil {
		return rep, err
	}
	rep.ID = "table2-scylla"
	rep.Title = "Surrogate prediction performance on ScyllaDB"
	rep.Notes = append(rep.Notes, "paper: ScyllaDB prediction error 6.9-7.8% — worse than Cassandra's because the auto-tuner makes throughput noisy (Figure 10)")
	return rep, nil
}

// Select resolves a comma-separated list of IDs against the table: the
// named experiments in table order, or every experiment that is not
// opt-in when the list is empty. An ID the table does not hold is an
// error that lists the ones it does.
func Select(only string) ([]Experiment, error) {
	named := make(map[string]bool)
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			named[strings.TrimSpace(id)] = true
		}
	}
	all := Experiments()
	known := make([]string, len(all))
	var out []Experiment
	for i, e := range all {
		known[i] = e.ID
		if named[e.ID] || (only == "" && !e.OptIn) {
			out = append(out, e)
		}
		delete(named, e.ID)
	}
	if len(named) > 0 {
		return nil, fmt.Errorf("bench: unknown experiment %s (known: %s)",
			strings.Join(slices.Sorted(maps.Keys(named)), ", "), strings.Join(known, ", "))
	}
	return out, nil
}
