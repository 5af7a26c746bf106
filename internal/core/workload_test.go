package core

import "testing"

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{ReadRatio: 0.5, ScanRatio: 0.3}).Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	for _, w := range []Workload{
		{ReadRatio: -0.1},
		{ReadRatio: 1.1},
		{ReadRatio: 0.5, ScanRatio: -0.1},
		{ReadRatio: 0.5, ScanRatio: 1.1},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("%+v should fail validation", w)
		}
	}
}

func TestWorkloadString(t *testing.T) {
	if got := RR(0.9).String(); got != "RR=0.9" {
		t.Errorf("RR-only workload renders %q", got)
	}
	if got := (Workload{ReadRatio: 0.5, ScanRatio: 0.2}).String(); got != "RR=0.5 scan=0.2" {
		t.Errorf("mixed workload renders %q", got)
	}
}

func TestWorkloadVectorAndDist(t *testing.T) {
	w := Workload{ReadRatio: 0.7, ScanRatio: 0.2}
	if v := w.vector(true); len(v) != 2 || v[0] != 0.7 || v[1] != 0.2 {
		t.Errorf("vector with scans = %v", v)
	}
	if v := w.vector(false); len(v) != 1 || v[0] != 0.7 {
		t.Errorf("RR-only vector = %v", v)
	}
	if d := w.dist(RR(0.4)); d < 0.5-1e-12 || d > 0.5+1e-12 {
		t.Errorf("L1 distance = %v, want 0.5", d)
	}
	if rrs := RRs(0.1, 0.9); len(rrs) != 2 || rrs[1] != RR(0.9) {
		t.Errorf("RRs = %v", rrs)
	}
}

// TestWorkloadDistAllocGuard: the controllers measure every window's
// movement with dist, and it allocates nothing.
func TestWorkloadDistAllocGuard(t *testing.T) {
	a, b := Workload{ReadRatio: 0.7, ScanRatio: 0.2}, RR(0.4)
	var sum float64
	if allocs := testing.AllocsPerRun(100, func() { sum += a.dist(b) }); allocs != 0 {
		t.Errorf("dist allocates %v times per call, want 0", allocs)
	}
	if sum == 0 {
		t.Error("dist returned 0 for workloads 0.5 apart")
	}
}
