package nn

// useKernel routes a layer's full four-row blocks to the assembly
// kernel. It is haveKernel, the host's answer, and changes only in
// tests, which clear it to run the portable block on a kernel host.
var useKernel = haveKernel

// dotBlocks sets y[b·ys+l] = pre + Σᵢ w[i]·x[b·xs+4i+l] for each lane
// l < 4 of every block b < blocks, i ascending: per lane dense's
// portable chain, each product rounded before it is added, so the sums
// are its sums bit for bit. A slice too short for the last element the
// call touches panics before anything is read.
//
//rafiki:hot
func dotBlocks(y []float64, ys int, x []float64, xs int, w []float64, pre float64, blocks int) {
	if blocks == 0 {
		return
	}
	_ = y[(blocks-1)*ys+3]
	if len(w) > 0 {
		_ = x[(blocks-1)*xs+4*len(w)-1]
	}
	dotBlocksAVX(y, ys, x, xs, w, pre, blocks)
}

// tanhBlocks sets y[i] = math.Tanh(y[i]) for every i, bit for bit, four
// lanes at a time; len(y) must be a multiple of four.
//
//rafiki:hot
func tanhBlocks(y []float64) {
	if len(y)%4 != 0 {
		panic("nn: tanh blocks over a length that is not a multiple of four")
	}
	tanhAVX(y)
}
