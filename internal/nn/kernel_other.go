//go:build !amd64

package nn

// haveKernel is false off amd64: every block runs the portable loops.
const haveKernel = false

func dotBlocksAVX(y []float64, ys int, x []float64, xs int, w []float64, pre float64, blocks int) {
	panic("nn: no assembly kernel on this architecture")
}

func tanhAVX(y []float64) {
	panic("nn: no assembly kernel on this architecture")
}
