package bench

import (
	"bytes"
	"testing"

	"rafiki/internal/cluster"
	"rafiki/internal/obs"
)

// faultPostureSnapshot runs the full-stack resilience posture under the
// seeded fault schedule with a fresh registry and returns the exported
// snapshot JSON.
func faultPostureSnapshot(t *testing.T, ops int) []byte {
	t.Helper()
	env := DefaultEnv()
	env.SampleOps = ops
	env.Obs = obs.NewRegistry()

	const seed = 130_000
	healthy, err := runFaultPosture(env, cluster.Options{}, cluster.PassiveResilience(), nil, seed, 101)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultSchedule(healthy.result.Seconds)
	perOp := healthy.result.Seconds / float64(env.SampleOps)
	full := cluster.DefaultResilienceOptions().ScaledTo(perOp)
	if _, err := runFaultPosture(env, cluster.Options{}, full, sched, seed, 101); err != nil {
		t.Fatal(err)
	}

	blob, err := env.Obs.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFaultInjectionSnapshotDeterminism is the observability layer's
// reproducibility contract: two same-seed fault-injection runs, each
// with its own fresh registry, must export byte-identical snapshots —
// every counter, gauge, histogram bin, and span, in the same order.
// Nothing on the measured path may consult the wall clock.
func TestFaultInjectionSnapshotDeterminism(t *testing.T) {
	ops := 30_000
	if testing.Short() {
		ops = 8_000
	}
	a := faultPostureSnapshot(t, ops)
	b := faultPostureSnapshot(t, ops)
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed runs exported different snapshots:\nrun1 %d bytes, run2 %d bytes", len(a), len(b))
	}
	if len(a) == 0 || !bytes.Contains(a, []byte("cluster.op_attempts")) {
		t.Error("snapshot missing expected cluster counters")
	}
	if !bytes.Contains(a, []byte("nosql.flush")) {
		t.Error("snapshot missing engine flush spans")
	}
}
