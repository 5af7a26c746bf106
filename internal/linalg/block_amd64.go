package linalg

// subBlockAVX is subBlock's full-width body: VEX multiplies and
// subtracts, never a fused multiply-add. The caller has checked bounds.
//
//go:noescape
func subBlockAVX(dst, src, col, row []float64, kn, cs, rs int, d float64)

// gramBlockAVX is gramBlock's full-width body, as subBlockAVX.
//
//go:noescape
func gramBlockAVX(dst0, dst1, col0, col1, row []float64, kn, rs int)
