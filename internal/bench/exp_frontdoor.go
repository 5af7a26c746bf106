package bench

import (
	"fmt"

	"rafiki/internal/frontdoor"
)

// fmtQ renders a virtual-seconds latency quantile.
func fmtQ(v float64) string { return fmt.Sprintf("%.1fus", v*1e6) }

// FrontDoor demonstrates the multi-tenant front door: the standard
// overload serving scenario (2000 tenants in steady / bursty / greedy
// classes, a coordinator-link partition and a straggler overlapping a
// 2.5x demand surge) run once at the environment seed, reported as a
// per-class breakdown — who was admitted, who was shed and by which
// mechanism, and what tail latency the survivors saw.
func FrontDoor(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	seed := env.Seed + 170_000
	res, stats, err := frontdoor.OverloadScenario(seed)
	if err != nil {
		return Report{}, err
	}

	classes := Table{
		Title:  "Per-class front-door outcomes (3 nodes, RF=3, QUORUM/QUORUM, partition + straggler + 2.5x surge)",
		Header: []string{"class", "tenants", "arrivals", "admitted", "completed", "shed rate", "shed queue", "shed deadline", "p50", "p99", "p99.9"},
	}
	for _, c := range res.Classes {
		classes.Rows = append(classes.Rows, []string{
			c.Name, fmt.Sprint(c.Tenants), fmt.Sprint(c.Arrivals), fmt.Sprint(c.Admitted),
			fmt.Sprint(c.Completed), fmt.Sprint(c.ShedRateLimited), fmt.Sprint(c.ShedQueueFull),
			fmt.Sprint(c.ShedDeadline), fmtQ(c.P50), fmtQ(c.P99), fmtQ(c.P999),
		})
	}

	compliance := 1.0
	if len(res.Windows) > 0 {
		compliance = 1 - float64(res.SLOViolations)/float64(len(res.Windows))
	}
	summary := Table{
		Title:  "Run summary",
		Header: []string{"arrivals", "admitted", "completed", "failed ops", "max depth", "max in-flight", "slo windows", "violated", "breaker opens", "rpc lost", "shed digest"},
		Rows: [][]string{{
			fmt.Sprint(res.Arrivals), fmt.Sprint(res.Admitted), fmt.Sprint(res.Completed),
			fmt.Sprint(res.FailedOps), fmt.Sprint(res.MaxQueueDepth), fmt.Sprint(res.MaxInFlight),
			fmt.Sprint(len(res.Windows)), fmt.Sprint(res.SLOViolations),
			fmt.Sprint(stats.BreakerOpens), fmt.Sprint(stats.RPCLostTimeouts),
			fmt.Sprintf("%016x", res.ShedDigest),
		}},
	}

	return Report{
		ID:     "frontdoor",
		Title:  "Multi-tenant front door: admission control, backpressure, and load shedding under overload",
		Tables: []Table{classes, summary},
		Notes: []string{
			"steady tenants (80% of fleet) carry modest Poisson load and are the protected class; bursty tenants compress the same mean load into 4x-intense ON dwells; greedy tenants each offer far more than their token bucket admits",
			"every admission decision is deterministic in the seed: token bucket, bounded FIFO-per-tenant queue, then deadline check at dispatch",
			fmt.Sprintf("SLO window compliance: %.3f (%d of %d windows violated the p99 ceiling)", compliance, res.SLOViolations, len(res.Windows)),
		},
	}, nil
}

// SLO runs the overload chaos harness over its fixed seed set; its gate
// fails if any seed misses its verdict: admitted traffic must hold the
// p99 SLO in >= 90% of windows, shedding must be deterministic (each
// seed is run twice and the shed digests and obs snapshots must match
// byte-for-byte), and no admitted request may violate read-your-writes
// or monotonic reads. This is the `make slo` gate.
func SLO(env Env) (Report, error) {
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	rep, err := frontdoor.RunOverload(frontdoor.OverloadConfig{})
	if err != nil {
		return Report{}, err
	}

	t := Table{
		Title:  "Overload chaos verdicts (fixed seed set; each seed run twice for the determinism cross-check)",
		Header: []string{"seed", "verdict", "arrivals", "admitted", "completed", "shed rate", "shed queue", "shed deadline", "depth", "compliance", "steady p99", "breaker opens", "rpc lost", "digest"},
	}
	verdict := gate(rep.Failures == 0,
		"every seed meets the p99 ceiling in >= 90%% of SLO windows, sheds (the schedule must actually overload), produces identical shed digests and byte-identical obs snapshots on both runs, and keeps the admitted-request history clean under read-your-writes and monotonic reads (%d of %d seeds fail)",
		rep.Failures, len(rep.Outcomes))
	for _, o := range rep.Outcomes {
		if o.Verdict != "ok" {
			verdict.Text += fmt.Sprintf("; seed %d %s: %s", o.Seed, o.Verdict, o.Detail)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(o.Seed), o.Verdict, fmt.Sprint(o.Arrivals), fmt.Sprint(o.Admitted),
			fmt.Sprint(o.Completed), fmt.Sprint(o.ShedRateLimited), fmt.Sprint(o.ShedQueueFull),
			fmt.Sprint(o.ShedDeadline), fmt.Sprint(o.MaxQueueDepth),
			fmt.Sprintf("%.3f", o.Compliance), fmtQ(o.SteadyP99),
			fmt.Sprint(o.BreakerOpens), fmt.Sprint(o.RPCLost), fmt.Sprintf("%016x", o.Digest),
		})
	}

	return Report{
		ID:     "slo",
		Title:  "SLO gate: front-door overload chaos over the fixed seed set",
		Tables: []Table{t},
		Claims: []Claim{verdict},
	}, nil
}
