package nn

import (
	"math"

	"rafiki/internal/cpu"
)

// haveKernel reports whether this process may run the assembly kernel:
// the CPU has AVX2 and FMA with OS-saved YMM state, which is when
// math.Exp takes its FMA path, and the kernel's tanh reproduces
// math.Tanh on every probe.
var haveKernel = selectKernel(math.Tanh)

// selectKernel reports whether the CPU can run the kernel and its tanh
// reproduces ref on every probe.
func selectKernel(ref func(float64) float64) bool {
	return cpu.AVX2FMA && tanhMatches(ref)
}

// tanhProbes cover every branch of math.tanh and its edges, and inputs
// at which math.Exp's FMA and plain paths round apart, so that a process
// whose math.Exp does not take the FMA path (GODEBUG=cpu.fma=off) fails
// the check.
var tanhProbes = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -0x1p-1022, 1e-8, 0.3, -0.5, 0.6,
	math.Nextafter(0.625, 0), 0.625, math.Nextafter(0.625, 1), -0.625,
	0.9561051738315369, -0.9562517641439869, -1.2381590999804408, 2.146734967268695,
	3.75, -19.5, math.Nextafter(halfMaxLog, 0), halfMaxLog,
	math.Nextafter(halfMaxLog, 50), -60, math.Inf(1), math.Inf(-1),
	math.NaN(), 1e300, -7.25e-3, 0.8404538244850756,
}

// halfMaxLog is math.tanh's bound past which it returns ±1.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

// tanhMatches runs the kernel's tanh over tanhProbes and reports whether
// every result has the bits of ref's.
func tanhMatches(ref func(float64) float64) bool {
	got := tanhProbes
	tanhAVX(got[:])
	for i, x := range tanhProbes {
		if math.Float64bits(got[i]) != math.Float64bits(ref(x)) {
			return false
		}
	}
	return true
}

// dotBlocksAVX is dotBlocks' body. The caller has checked bounds.
//
//go:noescape
func dotBlocksAVX(y []float64, ys int, x []float64, xs int, w []float64, pre float64, blocks int)

// tanhAVX is tanhBlocks' body.
//
//go:noescape
func tanhAVX(y []float64)
