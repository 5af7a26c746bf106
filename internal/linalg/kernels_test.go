package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rafiki/internal/cpu"
)

// The references below write every product as float64(x*y), as the
// kernels do, so that a compiler that fuses multiply-adds (arm64, or
// amd64 at GOAMD64=v3) cannot turn them into a different chain.

// naiveAtA is the reference Gram product: the plain triple loop with
// sample rows accumulating in ascending order. AtAInto must match it
// bit for bit.
func naiveAtA(m *Matrix) *Matrix {
	out := New(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for a := 0; a < m.Cols; a++ {
			va := m.At(i, a)
			if va == 0 {
				continue
			}
			for b := a; b < m.Cols; b++ {
				out.Set(a, b, out.At(a, b)+float64(va*m.At(i, b)))
			}
		}
	}
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			out.Set(b, a, out.At(a, b))
		}
	}
	return out
}

// naiveCholesky is the reference factorization: the textbook
// row-by-row loop over m's lower triangle, one subtraction chain per
// element with k ascending, into the lower-triangular l. The kernel's
// factor u = Lᵀ must match it bit for bit, error included.
func naiveCholesky(m, l *Matrix) error {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= float64(l.At(i, k) * l.At(j, k))
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotSPD
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return nil
}

// naiveForwardSub and naiveBackSub are the reference substitutions
// through the lower-triangular l: L·y = b, then Lᵀ·x = y.
func naiveForwardSub(l *Matrix, b, y []float64) {
	for i := 0; i < l.Rows; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l.At(i, k) * y[k])
		}
		y[i] = sum / l.At(i, i)
	}
}

func naiveBackSub(l *Matrix, y, x []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l.At(k, i) * x[k])
		}
		x[i] = sum / l.At(i, i)
	}
}

// naiveTraceInverse is the reference tr(m⁻¹): one forward substitution
// per unit column, each square added to the trace as it is produced.
// Solver.TraceInverseSPD must match it bit for bit.
func naiveTraceInverse(m *Matrix) (float64, error) {
	n := m.Rows
	l := New(n, n)
	if err := naiveCholesky(m, l); err != nil {
		return 0, err
	}
	y := make([]float64, n)
	var trace float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var sum float64
			if i == j {
				sum = 1
			}
			for k := j; k < i; k++ {
				sum -= float64(l.At(i, k) * y[k])
			}
			y[i] = sum / l.At(i, i)
			trace += float64(y[i] * y[i])
		}
	}
	return trace, nil
}

// factor runs the kernel's factorization of a into a fresh n x n u.
func factor(a *Matrix) (*Matrix, error) {
	n := a.Rows
	u := New(n, n)
	return u, cholesky(a.Data, u.Data, make([]float64, n), n)
}

// scribbleUpper overwrites a's strict upper triangle, which no
// factorization may read, with values that would change any result
// that did.
func scribbleUpper(rng *rand.Rand, a *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := i + 1; j < a.Cols; j++ {
			a.Set(i, j, 1e3*rng.NormFloat64())
		}
	}
}

// onBothPaths runs fn as subtest "avx", when the host has it, and as
// subtest "portable" with the assembly switched off: the two must
// agree with the references, and so with each other, bit for bit.
func onBothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("avx", func(t *testing.T) {
		if !cpu.AVX {
			t.Skip("no AVX on this host")
		}
		fn(t)
	})
	t.Run("portable", func(t *testing.T) {
		useAVX = false
		defer func() { useAVX = cpu.AVX }()
		fn(t)
	})
}

// kernelShapes are the (rows, cols) the bit-identity tests sweep: every
// width from 1 to 9, the block edges 15, 16, 17, 31, 32 and 33 (one
// lane short of a block, exactly one, one over; the same at two),
// widths that are not multiples of four, the trainer's real 220 x 163
// Jacobian, and 220 x 191, one more odd width.
var kernelShapes = [][2]int{
	{1, 1}, {3, 2}, {5, 3}, {4, 4}, {9, 5}, {2, 6}, {11, 7}, {8, 8}, {13, 9},
	{40, 13}, {20, 15}, {7, 16}, {30, 17}, {17, 22}, {50, 31}, {33, 32}, {40, 33},
	{64, 41}, {220, 163}, {220, 191},
}

// sprinkleZeros plants exact +0 and -0 entries, the terms the naive
// Gram loop skips and the tiled one multiplies through.
func sprinkleZeros(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		switch rng.Intn(7) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
}

// randomSPD returns JᵀJ + 0.05·I for a random rows x n J.
func randomSPD(t testing.TB, rng *rand.Rand, rows, n int) *Matrix {
	a := naiveAtA(randomMatrix(rng, rows, n))
	if err := a.AddDiagonal(0.05); err != nil {
		t.Fatal(err)
	}
	return a
}

// bitsDiffer reports the first index at which two equal-length slices
// differ in their float64 bit patterns (so -0 != +0 and NaN == NaN).
func bitsDiffer(got, want []float64) (int, bool) {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, true
		}
	}
	return 0, false
}

// naiveAtVec is the reference Jᵀe product with ascending-row
// accumulation. AtVecInto must match it bit for bit.
func naiveAtVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j := 0; j < m.Cols; j++ {
			out[j] += m.At(i, j) * vi
		}
	}
	return out
}

// TestAtAIntoBitIdentical requires the Gram kernel to reproduce the
// naive loop exactly on every shape, with and without exact zeros in
// the data, and into a reused dst.
func TestAtAIntoBitIdentical(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, shape := range kernelShapes {
			rows, cols := shape[0], shape[1]
			m := randomMatrix(rng, rows, cols)
			got := New(cols, cols)
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					for i := range m.Data {
						m.Data[i] = rng.NormFloat64()
					}
					sprinkleZeros(rng, m)
				}
				want := naiveAtA(m)
				if err := m.AtAInto(got); err != nil {
					t.Fatal(err)
				}
				if i, bad := bitsDiffer(got.Data, want.Data); bad {
					t.Fatalf("%dx%d pass %d: AtAInto[%d] = %v, naive = %v (bit mismatch)",
						rows, cols, pass, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
	bad := New(2, 2)
	if err := New(3, 3).AtAInto(bad); err == nil {
		t.Error("shape mismatch should error")
	}
}

// TestCholeskyBitIdentical requires the factor u = Lᵀ to be the
// reference's L transposed, bit for bit, on every shape, from a matrix
// whose upper triangle is garbage.
func TestCholeskyBitIdentical(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, shape := range kernelShapes {
			n := shape[1]
			a := randomSPD(t, rng, shape[0]+n, n)
			scribbleUpper(rng, a)
			want := New(n, n)
			if err := naiveCholesky(a, want); err != nil {
				t.Fatal(err)
			}
			got, err := factor(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if g, w := got.At(j, i), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("n=%d: u[%d][%d] = %v, naive L[%d][%d] = %v (bit mismatch)", n, j, i, g, i, j, w)
					}
				}
			}
		}
	})
}

// TestSolverBitIdentical pins Solver.TraceInverseSPD against the
// reference substitution on every shape, and Solver.SolveSPD against a
// solve through the reference factor, with the upper triangle garbage.
func TestSolverBitIdentical(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		var s Solver
		for _, shape := range kernelShapes {
			n := shape[1]
			a := randomSPD(t, rng, shape[0]+n, n)
			scribbleUpper(rng, a)
			want, err := naiveTraceInverse(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.TraceInverseSPD(a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: TraceInverseSPD = %v, naive = %v (bit mismatch)", n, got, want)
			}

			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			l := New(n, n)
			if err := naiveCholesky(a, l); err != nil {
				t.Fatal(err)
			}
			y, wantX, gotX := make([]float64, n), make([]float64, n), make([]float64, n)
			naiveForwardSub(l, b, y)
			naiveBackSub(l, y, wantX)
			if err := s.SolveSPD(a, b, gotX); err != nil {
				t.Fatal(err)
			}
			if i, bad := bitsDiffer(gotX, wantX); bad {
				t.Fatalf("n=%d: SolveSPD x[%d] = %v, naive = %v (bit mismatch)", n, i, gotX[i], wantX[i])
			}
		}
	})
}

// TestFactorizationErrorsMatchReference feeds both factorizations
// inputs that must fail — an indefinite matrix whose first bad pivot
// sits at each possible position, and NaN planted on and below the
// diagonal — and inputs with an infinite pivot that must not: the new
// kernel has to agree with the reference on which is which.
func TestFactorizationErrorsMatchReference(t *testing.T) {
	onBothPaths(t, testFactorizationErrors)
}

func testFactorizationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s Solver
	check := func(name string, a *Matrix) {
		t.Helper()
		n := a.Rows
		wantErr := naiveCholesky(a, New(n, n))
		if _, gotErr := factor(a); !errors.Is(gotErr, wantErr) {
			t.Errorf("%s: cholesky error %v, reference %v", name, gotErr, wantErr)
		}
		wantTr, _ := naiveTraceInverse(a)
		gotTr, gotErr := s.TraceInverseSPD(a)
		if !errors.Is(gotErr, wantErr) {
			t.Errorf("%s: TraceInverseSPD error %v, reference %v", name, gotErr, wantErr)
		}
		if math.Float64bits(gotTr) != math.Float64bits(wantTr) {
			t.Errorf("%s: TraceInverseSPD = %v, reference %v", name, gotTr, wantTr)
		}
	}
	for _, n := range []int{1, 2, 5, 7, 9, 17, 22} {
		for _, at := range []int{0, n / 2, n - 1} {
			indefinite := randomSPD(t, rng, n+3, n)
			indefinite.Set(at, at, -1)
			check(fmt.Sprintf("n=%d negative pivot %d", n, at), indefinite)

			nanPivot := randomSPD(t, rng, n+3, n)
			nanPivot.Set(at, at, math.NaN())
			check(fmt.Sprintf("n=%d NaN pivot %d", n, at), nanPivot)

			infPivot := randomSPD(t, rng, n+3, n)
			infPivot.Set(at, at, math.Inf(1))
			check(fmt.Sprintf("n=%d +Inf pivot %d", n, at), infPivot)

			if at > 0 {
				nanBelow := randomSPD(t, rng, n+3, n)
				nanBelow.Set(at, 0, math.NaN())
				check(fmt.Sprintf("n=%d NaN at (%d,0)", n, at), nanBelow)
				infBelow := randomSPD(t, rng, n+3, n)
				infBelow.Set(at, 0, math.Inf(-1))
				check(fmt.Sprintf("n=%d -Inf at (%d,0)", n, at), infBelow)
			}
		}
	}
	if _, err := factor(fromRows([][]float64{{1, 2}, {2, 1}})); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite 2x2: %v, want ErrNotSPD", err)
	}
}

func TestAtVecIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(50)
		cols := 1 + rng.Intn(13)
		m := randomMatrix(rng, rows, cols)
		v := make([]float64, rows)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := naiveAtVec(m, v)
		got := make([]float64, cols)
		if err := m.AtVecInto(got, v); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("trial %d (%dx%d): AtVecInto[%d] = %v, naive = %v (bit mismatch)",
					trial, rows, cols, j, got[j], want[j])
			}
		}
	}
	if err := New(3, 2).AtVecInto(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("out length mismatch should error")
	}
}

func TestScaleFrom(t *testing.T) {
	src := fromRows([][]float64{{1, -2}, {3, 4}})
	dst := New(2, 2)
	if err := dst.ScaleFrom(src, 2); err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{2, -4}, {6, 8}})
	if !matEqual(dst, want, 0) {
		t.Errorf("ScaleFrom = %+v, want %+v", dst, want)
	}
	if err := New(1, 2).ScaleFrom(src, 1); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestSolverReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Solver
	for _, n := range []int{4, 4, 7, 3} {
		j := randomMatrix(rng, n+3, n)
		a := j.AtA()
		if err := a.AddDiagonal(0.2); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if err := s.SolveSPD(a, b, x); err != nil {
			t.Fatal(err)
		}
		want, err := a.SolveSPD(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("n=%d: Solver x[%d] = %v, Matrix x = %v", n, i, x[i], want[i])
			}
		}
		tr, err := s.TraceInverseSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		var fresh Solver
		wantTr, err := fresh.TraceInverseSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		if tr != wantTr {
			t.Fatalf("n=%d: reused Solver trace %v, fresh Solver trace %v", n, tr, wantTr)
		}
	}
	// Error paths.
	notSPD := fromRows([][]float64{{1, 2}, {2, 1}})
	if err := s.SolveSPD(notSPD, []float64{1, 2}, make([]float64, 2)); err == nil {
		t.Error("non-SPD should error")
	}
	if _, err := s.TraceInverseSPD(notSPD); err == nil {
		t.Error("non-SPD trace should error")
	}
	id := identity(3)
	if err := s.SolveSPD(id, []float64{1}, make([]float64, 3)); err == nil {
		t.Error("b length mismatch should error")
	}
	if err := s.SolveSPD(id, []float64{1, 2, 3}, make([]float64, 1)); err == nil {
		t.Error("x length mismatch should error")
	}
	if _, err := s.TraceInverseSPD(New(2, 3)); err == nil {
		t.Error("non-square trace should error")
	}
}

// TestBlockBoundsPanic hands each block wrapper one slice a lane or a
// step too short: it must panic on both paths, never read past the end.
func TestBlockBoundsPanic(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		const kn, rs = 3, 20
		full := func(n int) []float64 { return make([]float64, n) }
		sub := func(dst, src, col, row []float64) func() {
			return func() { subBlock(dst, src, col, row, kn, 1, rs, 1) }
		}
		gram := func(dst1, col0, col1, row []float64) func() {
			return func() { gramBlock(full(blockW), dst1, col0, col1, row, kn, rs) }
		}
		rowLen, colLen := (kn-1)*rs+blockW, (kn-1)*rs+1
		cases := []struct {
			name string
			fn   func()
		}{
			{"sub src", sub(full(blockW), full(blockW-1), full(kn), full(rowLen))},
			{"sub col", sub(full(blockW), full(blockW), full(kn-1), full(rowLen))},
			{"sub row", sub(full(blockW), full(blockW), full(kn), full(rowLen-1))},
			{"gram dst1", gram(full(blockW-1), full(colLen), full(colLen), full(rowLen))},
			{"gram col0", gram(full(blockW), full(colLen-1), full(colLen), full(rowLen))},
			{"gram col1", gram(full(blockW), full(colLen), full(colLen-1), full(rowLen))},
			{"gram row", gram(full(blockW), full(colLen), full(colLen), full(rowLen-1))},
		}
		for _, tc := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a short slice did not panic", tc.name)
					}
				}()
				tc.fn()
			}()
		}
		// The same shapes at full length run.
		sub(full(blockW), full(blockW), full(kn), full(rowLen))()
		gram(full(blockW), full(colLen), full(colLen), full(rowLen))()
	})
}

// TestKernelAllocGuard pins the zero-allocation contract of the Into
// kernels and the warmed-up Solver: a regression that reintroduces a
// per-call allocation fails here, not just in a benchmark nobody reads.
func TestKernelAllocGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randomMatrix(rng, 64, 20)
	v := make([]float64, 64)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	gram := New(20, 20)
	atv := make([]float64, 20)
	var s Solver
	spd := m.AtA()
	if err := spd.AddDiagonal(0.5); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	if err := s.SolveSPD(spd, atv, x); err != nil { // warm the scratch
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"AtAInto", func() { _ = m.AtAInto(gram) }},
		{"AtVecInto", func() { _ = m.AtVecInto(atv, v) }},
		{"ScaleFrom", func() { _ = gram.ScaleFrom(spd, 2) }},
		{"SolverSolveSPD", func() { _ = s.SolveSPD(spd, atv, x) }},
		{"SolverTraceInverseSPD", func() { _, _ = s.TraceInverseSPD(spd) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(20, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, allocs)
		}
	}
}

func benchMatrix(rows, cols int) (*Matrix, []float64, []float64) {
	rng := rand.New(rand.NewSource(99))
	m := randomMatrix(rng, rows, cols)
	vr := make([]float64, rows)
	vc := make([]float64, cols)
	for i := range vr {
		vr[i] = rng.NormFloat64()
	}
	for i := range vc {
		vc[i] = rng.NormFloat64()
	}
	return m, vr, vc
}

func BenchmarkAtA(b *testing.B) {
	m, _, _ := benchMatrix(256, 41)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.AtA()
	}
}

// benchShapes are the Jacobian shapes the O(n³)-class kernels are
// timed at: the historical 256 x 41, and the 220 x 163 of the tuning
// pipeline's [6,14,4,1] surrogate — a 163 x 163 solve is ~60x the work
// of a 41 x 41 one, so only the second row shows what the trainer pays.
var benchShapes = [][2]int{{256, 41}, {220, 163}}

func benchShapeName(shape [2]int) string { return fmt.Sprintf("%dx%d", shape[0], shape[1]) }

func BenchmarkAtAInto(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(benchShapeName(shape), func(b *testing.B) {
			m, _, _ := benchMatrix(shape[0], shape[1])
			dst := New(shape[1], shape[1])
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.AtAInto(dst)
			}
		})
	}
}

func BenchmarkAtVecInto(b *testing.B) {
	m, vr, _ := benchMatrix(256, 41)
	out := make([]float64, 41)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.AtVecInto(out, vr)
	}
}

func BenchmarkSolverSolveSPD(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(benchShapeName(shape), func(b *testing.B) {
			m, _, vc := benchMatrix(shape[0], shape[1])
			spd := m.AtA()
			if err := spd.AddDiagonal(0.5); err != nil {
				b.Fatal(err)
			}
			x := make([]float64, shape[1])
			var s Solver
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.SolveSPD(spd, vc, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolverTraceInverseSPD(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(benchShapeName(shape), func(b *testing.B) {
			m, _, _ := benchMatrix(shape[0], shape[1])
			spd := m.AtA()
			if err := spd.AddDiagonal(0.5); err != nil {
				b.Fatal(err)
			}
			var s Solver
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.TraceInverseSPD(spd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
