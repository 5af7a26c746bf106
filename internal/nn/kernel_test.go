package nn

import "testing"

// onBothPaths runs fn as subtest "avx", when this process runs the
// assembly kernel, and as subtest "portable" with the kernel switched
// off: both must match the row-at-a-time oracle, and so each other, bit
// for bit.
func onBothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("avx", func(t *testing.T) {
		if !haveKernel {
			t.Skip("no AVX2/FMA kernel in this process")
		}
		fn(t)
	})
	t.Run("portable", func(t *testing.T) {
		useKernel = false
		defer func() { useKernel = haveKernel }()
		fn(t)
	})
}

// TestKernelBoundsPanic feeds each wrapper a slice one element short of
// the last one its call touches: it must panic before the assembly runs.
// The exact lengths run.
func TestKernelBoundsPanic(t *testing.T) {
	const ys, xs, terms, blocks = 12, 20, 3, 5
	full := func(n int) []float64 { return make([]float64, n) }
	yLen, xLen := (blocks-1)*ys+4, (blocks-1)*xs+4*terms
	dot := func(y, x []float64) func() {
		return func() { dotBlocks(y, ys, x, xs, full(terms), 0.5, blocks) }
	}
	for name, fn := range map[string]func(){
		"dot y":      dot(full(yLen-1), full(xLen)),
		"dot x":      dot(full(yLen), full(xLen-1)),
		"tanh len 7": func() { tanhBlocks(full(7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a short slice did not panic", name)
				}
			}()
			fn()
		}()
	}
	if haveKernel {
		dot(full(yLen), full(xLen))()
		tanhBlocks(full(8))
	}
}
