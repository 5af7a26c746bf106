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

// TestOverSeeds pins the over-seeds rendering's verdict counting, the
// median of a claim that reads one number, and its refusal of runs that
// do not line up claim for claim.
func TestOverSeeds(t *testing.T) {
	run := func(a, b bool, text string, v float64) []Report {
		return []Report{{ID: "x", Claims: []Claim{{Text: text, Holds: a}, {Text: "b", Holds: b, Gate: true},
			claimOn(v, atLeast(0.3), pct, "c")}}}
	}
	got, err := OverSeeds([]int64{1, 2, 3}, [][]Report{run(true, false, "a1", 0.31), run(true, true, "a2", 0.2), run(true, false, "a3", 0.35)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"x claim 1: holds on 3 of 3\n  seed 1 holds: a1\n  seed 2 holds: a2\n  seed 3 holds: a3\n",
		"x gate 2: holds on 1 of 3\n  seed 1 FAILS: b\n  seed 2 holds: b\n",
		"x claim 3: holds on 2 of 3; median 31.0% [20.0%..35.0%] holds\n  seed 1 holds: c\n  seed 2 FAILS: c\n",
		"seed 1: claims: 2 of 3 hold; reports sha256 ",
		"claims over 3 seeds: 2 hold on the median, 1 hold at every seed, 2 flip with the seed, 0 fail at every seed (of 3)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering lacks %q:\n%s", want, got)
		}
	}
	if got, _ := OverSeeds([]int64{1, 2}, [][]Report{run(true, true, "a", 0.1), run(true, true, "a", 0.4)}); !strings.Contains(got, "median 25.0% [10.0%..40.0%] FAILS") {
		t.Errorf("an even seed count's median is the mean of the middle two:\n%s", got)
	}
	short := []Report{{ID: "x", Claims: []Claim{{Text: "a"}}}}
	if _, err := OverSeeds([]int64{1, 2}, [][]Report{run(true, true, "a", 0), short}); err == nil {
		t.Error("runs with different claim counts should error")
	}
	if _, err := OverSeeds([]int64{1, 2}, [][]Report{short}); err == nil {
		t.Error("fewer runs than seeds should error")
	}
	unread := run(true, true, "a", 0)
	unread[0].Claims[2].num = nil
	if _, err := OverSeeds([]int64{1, 2}, [][]Report{run(true, true, "a", 0), unread}); err == nil {
		t.Error("a claim that reads a number at one seed only should error")
	}
}
