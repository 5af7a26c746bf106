package linalg

// haveAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches, so the assembly entries may run.
var haveAVX = detectAVX()

// subBlockAVX is subBlock's full-width body: VEX multiplies and
// subtracts, never a fused multiply-add. The caller has checked bounds.
//
//go:noescape
func subBlockAVX(dst, src, col, row []float64, kn, cs, rs int, d float64)

// gramBlockAVX is gramBlock's full-width body, as subBlockAVX.
//
//go:noescape
func gramBlockAVX(dst0, dst1, col0, col1, row []float64, kn, rs int)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). It faults unless
// CPUID.1:ECX reports OSXSAVE.
func xgetbv() (eax, edx uint32)

func detectAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6 // the OS saves both the XMM and the YMM state
}
