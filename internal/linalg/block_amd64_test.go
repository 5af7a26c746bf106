package linalg

import (
	"testing"

	"rafiki/internal/cpu"
)

// TestKernelsUseAVX fails when CPUID and XCR0 report AVX but the
// trainer-shaped kernels ran a single block on the portable path, so a
// benchmark cannot silently measure the fallback. It reads the CPUID
// bits itself rather than trusting cpu.AVX.
func TestKernelsUseAVX(t *testing.T) {
	if _, _, ecx, _ := cpu.CPUID(1, 0); ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		t.Skip("CPUID reports no AVX (or no OSXSAVE)")
	}
	if xcr0, _ := cpu.XGETBV(); xcr0&6 != 6 {
		t.Skip("the OS does not save the YMM state")
	}
	var counts [2]int
	pathCounts = &counts
	defer func() { pathCounts = nil }()
	m, _, vc := benchMatrix(220, 163)
	spd := m.AtA()
	if err := spd.AddDiagonal(0.5); err != nil {
		t.Fatal(err)
	}
	var s Solver
	if err := s.SolveSPD(spd, vc, make([]float64, len(vc))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TraceInverseSPD(spd); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 || counts[1] == 0 {
		t.Fatalf("blocks run: %d portable, %d AVX; want every one on AVX (cpu.AVX=%v useAVX=%v)",
			counts[0], counts[1], cpu.AVX, useAVX)
	}
}
