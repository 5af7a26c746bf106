package frontdoor_test

import (
	"testing"

	"rafiki/internal/frontdoor"
)

// TestOverloadChaosSeedPasses runs the full overload chaos harness on
// one seed: partition + straggler + demand surge against a 2000-tenant
// fleet. The harness itself enforces the PR's three promises (SLO
// compliance for admitted traffic, deterministic shedding, session
// guarantees); here we assert it reaches a clean verdict and that the
// report is non-vacuous.
func TestOverloadChaosSeedPasses(t *testing.T) {
	rep, err := frontdoor.RunOverload(frontdoor.OverloadConfig{Seeds: []int64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(rep.Outcomes))
	}
	o := rep.Outcomes[0]
	if o.Verdict != "ok" || rep.Failures != 0 {
		t.Fatalf("verdict = %q (%s), %d failures", o.Verdict, o.Detail, rep.Failures)
	}
	if o.Seed != 3 || o.Arrivals < o.Admitted || o.Shed != o.ShedRateLimited+o.ShedQueueFull+o.ShedDeadline {
		t.Errorf("seed %d: arrivals=%d admitted=%d shed=%d (rate=%d queue=%d deadline=%d) inconsistent",
			o.Seed, o.Arrivals, o.Admitted, o.Shed, o.ShedRateLimited, o.ShedQueueFull, o.ShedDeadline)
	}
	// The schedule must actually exercise every defense layer.
	if o.ShedRateLimited == 0 || o.ShedQueueFull == 0 || o.ShedDeadline == 0 {
		t.Errorf("shed breakdown rate=%d queue=%d deadline=%d: every mechanism should fire",
			o.ShedRateLimited, o.ShedQueueFull, o.ShedDeadline)
	}
	if o.BreakerOpens == 0 {
		t.Error("partition schedule never opened the breaker")
	}
	if o.Compliance < 0.9 {
		t.Errorf("compliance = %.3f, want >= 0.9", o.Compliance)
	}
	if o.Completed == 0 || o.Admitted < o.Completed {
		t.Errorf("admitted=%d completed=%d inconsistent", o.Admitted, o.Completed)
	}
}
