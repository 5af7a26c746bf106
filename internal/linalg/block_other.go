//go:build !amd64

package linalg

func subBlockAVX(dst, src, col, row []float64, kn, cs, rs int, d float64) {
	panic("linalg: no AVX kernel on this architecture")
}

func gramBlockAVX(dst0, dst1, col0, col1, row []float64, kn, rs int) {
	panic("linalg: no AVX kernel on this architecture")
}
