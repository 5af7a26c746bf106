package cpu

// AVX reports AVX with OS-saved YMM state; AVX2FMA reports AVX2 and FMA
// on top of it.
var AVX, AVX2FMA = detect()

// CPUID executes CPUID with EAX = leaf and ECX = sub.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// XGETBV reads extended control register 0 (XCR0). It faults unless
// CPUID.1:ECX reports OSXSAVE.
func XGETBV() (eax, edx uint32)

func detect() (avx, avx2fma bool) {
	maxLeaf, _, _, _ := CPUID(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	const fma, osxsave, avxBit = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := CPUID(1, 0)
	if ecx&osxsave == 0 || ecx&avxBit == 0 {
		return false, false
	}
	if xcr0, _ := XGETBV(); xcr0&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 || ecx&fma == 0 {
		return true, false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := CPUID(7, 0)
	return true, ebx&avx2 != 0
}
