package core

import (
	"fmt"
	"math"
)

// Workload is the characterization vector W of Section 3.3, extended
// beyond the paper's scalar read ratio with the fraction of operations
// that are range scans, the one shape axis the CRUD+scan workload suite
// exposes. The zero scan ratio reproduces the paper's RR-only
// treatment, so Workload{ReadRatio: rr} (see RR) is exactly a pre-scan
// workload.
type Workload struct {
	// ReadRatio is the fraction of point operations that are reads —
	// the paper's RR.
	ReadRatio float64
	// ScanRatio is the fraction of all operations that are range scans.
	ScanRatio float64
}

// RR wraps a scalar read ratio as a Workload — the paper's original
// characterization, with no scans.
func RR(readRatio float64) Workload { return Workload{ReadRatio: readRatio} }

// RRs wraps a list of scalar read ratios as point-operation-only
// Workloads — the shape of the paper's collection grid.
func RRs(readRatios ...float64) []Workload {
	out := make([]Workload, len(readRatios))
	for i, rr := range readRatios {
		out[i] = RR(rr)
	}
	return out
}

// vector returns the workload's feature-vector prefix: ReadRatio, then
// ScanRatio when the surrogate's inputs carry the scan axis.
func (w Workload) vector(scans bool) []float64 {
	if scans {
		return []float64{w.ReadRatio, w.ScanRatio}
	}
	return []float64{w.ReadRatio}
}

// Validate reports characterization errors.
func (w Workload) Validate() error {
	if w.ReadRatio < 0 || w.ReadRatio > 1 {
		return fmt.Errorf("core: read ratio %v out of [0,1]", w.ReadRatio)
	}
	if w.ScanRatio < 0 || w.ScanRatio > 1 {
		return fmt.Errorf("core: scan ratio %v out of [0,1]", w.ScanRatio)
	}
	return nil
}

// String renders the workload compactly; pure-RR workloads render as
// the scalar the paper uses.
func (w Workload) String() string {
	if w.ScanRatio == 0 {
		return fmt.Sprintf("RR=%v", w.ReadRatio)
	}
	return fmt.Sprintf("RR=%v scan=%v", w.ReadRatio, w.ScanRatio)
}

// dist is the L1 distance between two workload characterizations — the
// movement the controllers compare against their re-tune threshold.
//
//rafiki:hot
func (w Workload) dist(o Workload) float64 {
	return math.Abs(w.ReadRatio-o.ReadRatio) + math.Abs(w.ScanRatio-o.ScanRatio)
}
