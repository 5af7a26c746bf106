package linalg

import "rafiki/internal/cpu"

// blockW is the block primitives' width: the output elements one call
// computes, four AVX registers of four doubles.
const blockW = 16

// useAVX routes full-width blocks to the assembly entries. It is
// cpu.AVX, the host's CPUID answer, and changes only in tests, which
// clear it to run the portable path on an AVX host.
var useAVX = cpu.AVX

// pathCounts, when a test sets it, counts the blocks each path runs:
// [0] the portable loops, [1] the assembly.
var pathCounts *[2]int

func countBlock(path int) {
	if pathCounts != nil {
		pathCounts[path]++
	}
}

// subBlock sets dst[l] = (src[l] - Σₖ col[k·cs]·row[k·rs+l]) / d for
// every lane l < len(dst), k ascending over 0..kn-1: per lane one
// subtraction chain, each product rounded before it is subtracted, then
// one division — the reference loops' own sequence for every element,
// so the result is theirs bit for bit. d = 1 leaves the sums undivided
// (x/1 is x). A slice too short for the last element the call touches
// panics before anything is read.
//
//rafiki:hot
func subBlock(dst, src, col, row []float64, kn, cs, rs int, d float64) {
	w := len(dst)
	_ = src[w-1]
	if kn > 0 {
		_ = col[(kn-1)*cs]
		_ = row[(kn-1)*rs+w-1]
	}
	if useAVX && w == blockW {
		countBlock(1)
		subBlockAVX(dst, src, col, row, kn, cs, rs, d)
		return
	}
	countBlock(0)
	copy(dst, src[:w])
	for k := 0; k < kn; k++ {
		c := col[k*cs]
		for l, v := range row[k*rs : k*rs+w] {
			dst[l] -= float64(c * v)
		}
	}
	for l := range dst {
		dst[l] /= d
	}
}

// gramBlock sets dst0[l] = Σₖ col0[k·rs]·row[k·rs+l] and dst1[l] the
// same with col1, for every lane l < len(dst0), k ascending over
// 0..kn-1 from +0: two output rows of a Gram product that share each
// row load. dst0 and dst1 may be the same slice (with col0 and col1
// equal). Bounds are checked as in subBlock.
//
//rafiki:hot
func gramBlock(dst0, dst1, col0, col1, row []float64, kn, rs int) {
	w := len(dst0)
	_ = dst1[w-1]
	if kn > 0 {
		_ = col0[(kn-1)*rs]
		_ = col1[(kn-1)*rs]
		_ = row[(kn-1)*rs+w-1]
	}
	if useAVX && w == blockW {
		countBlock(1)
		gramBlockAVX(dst0, dst1, col0, col1, row, kn, rs)
		return
	}
	countBlock(0)
	var acc0, acc1 [blockW]float64
	for k := 0; k < kn; k++ {
		c0, c1 := col0[k*rs], col1[k*rs]
		for l, v := range row[k*rs : k*rs+w] {
			acc0[l] += float64(c0 * v)
			acc1[l] += float64(c1 * v)
		}
	}
	copy(dst0, acc0[:w])
	copy(dst1, acc1[:w])
}
