package bench

import (
	"reflect"
	"strings"
	"testing"
)

// parentOrder is every experiment ID in the order the hand-written
// `if want(...)` chain of cmd/experiments ran them at 4f2b7b5, pinned as
// a literal so a reordered or dropped row shows up as a diff here.
var parentOrder = []string{
	"figure3", "figure5", "figure6", "figure10", "faultinjection",
	"netsim", "chaos", "ring", "frontdoor", "slo", "workloadmix",
	"figure4", "table1", "table2", "figure7", "figure8", "figure9",
	"searchspeed", "table3", "ablation-search", "ablation-trainer",
	"ablation-model", "ablation-surrogate-search", "crossworkload", "dynamic",
	"table4", "table2-scylla",
}

func ids(es []Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func TestExperimentsTable(t *testing.T) {
	all := Experiments()
	if got := ids(all); !reflect.DeepEqual(got, parentOrder) {
		t.Errorf("table order:\n got %v\nwant %v", got, parentOrder)
	}
	seen := make(map[string]bool)
	optIn := make(map[string]bool)
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has no Run", e.ID)
		}
		if e.OptIn {
			optIn[e.ID] = true
		}
	}
	wantOptIn := map[string]bool{"netsim": true, "chaos": true, "ring": true, "frontdoor": true, "slo": true, "workloadmix": true}
	if !reflect.DeepEqual(optIn, wantOptIn) {
		t.Errorf("opt-in set = %v, want %v", optIn, wantOptIn)
	}
}

func TestSelect(t *testing.T) {
	def, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	var wantDef []string
	for _, id := range parentOrder {
		switch id {
		case "netsim", "chaos", "ring", "frontdoor", "slo", "workloadmix":
		default:
			wantDef = append(wantDef, id)
		}
	}
	if got := ids(def); !reflect.DeepEqual(got, wantDef) {
		t.Errorf("default set:\n got %v\nwant %v", got, wantDef)
	}

	// Named experiments run in table order, opt-in ones included.
	got, err := Select("table4, chaos,figure3")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"figure3", "chaos", "table4"}; !reflect.DeepEqual(ids(got), want) {
		t.Errorf("Select(table4, chaos, figure3) = %v, want %v", ids(got), want)
	}

	_, err = Select("figure3,bogus")
	if err == nil {
		t.Fatal("unknown ID should error")
	}
	for _, want := range []string{"bogus", "figure3", "table2-scylla", "workloadmix"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestSuiteSharesPipelines: experiments on a pipeline share the
// suite's, experiments on the environment alone never build one, and a
// pipeline that cannot be built fails the experiment that asked for it.
func TestSuiteSharesPipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	s := &Suite{Opts: tinyPipelineOptions()}
	s.cassandra = testPipeline(t)
	byID := make(map[string]Experiment)
	for _, e := range Experiments() {
		byID[e.ID] = e
	}
	for _, id := range []string{"figure3", "figure8", "figure9"} {
		rep, err := byID[id].Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ID != id {
			t.Errorf("%s rendered as %q", id, rep.ID)
		}
	}
	if s.cassandra != testPipeline(t) || s.scylla != nil {
		t.Error("a pipeline was built with one in place")
	}
	s.Opts.Env.SampleOps = 0
	if _, err := byID["table4"].Run(s); err == nil {
		t.Error("table4 on an unbuildable ScyllaDB pipeline should error")
	}
}
