package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

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
				out.Set(a, b, out.At(a, b)+va*m.At(i, b))
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
// row-by-row loop, one subtraction chain per element with k ascending.
// choleskyInto must match it bit for bit, error included.
func naiveCholesky(m, l *Matrix) error {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
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
				sum -= l.At(i, k) * y[k]
			}
			y[i] = sum / l.At(i, i)
			trace += y[i] * y[i]
		}
	}
	return trace, nil
}

// kernelShapes are the (rows, cols) the bit-identity tests sweep: every
// width from 1 to 9 (all remainders of the 2 x 3 tile and the 4-row
// passes), widths that are not multiples of four, and the trainer's
// real 220 x 191 Jacobian.
var kernelShapes = [][2]int{
	{1, 1}, {3, 2}, {5, 3}, {4, 4}, {9, 5}, {2, 6}, {11, 7}, {8, 8}, {13, 9},
	{40, 13}, {17, 22}, {64, 41}, {220, 191},
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

// naiveMulVec is the reference row-by-row dot product, summed left to
// right. MulVecInto uses pairwise partial sums, so it only has to match
// within tolerance.
func naiveMulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j) * v[j]
		}
		out[i] = sum
	}
	return out
}

// TestAtAIntoBitIdentical requires the tiled Gram kernel to reproduce
// the naive loop exactly on every shape, with and without exact zeros
// in the data, and on a reused receiver (the transposition scratch is
// sized once and must be fully rewritten by every call).
func TestAtAIntoBitIdentical(t *testing.T) {
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
	bad := New(2, 2)
	if err := New(3, 3).AtAInto(bad); err == nil {
		t.Error("shape mismatch should error")
	}
}

// TestCholeskyBitIdentical requires the column-order, four-rows-a-pass
// factorization to produce the reference's factor bit for bit.
func TestCholeskyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range kernelShapes {
		n := shape[1]
		a := randomSPD(t, rng, shape[0]+n, n)
		want, got := New(n, n), New(n, n)
		if err := naiveCholesky(a, want); err != nil {
			t.Fatal(err)
		}
		if err := choleskyInto(a, got); err != nil {
			t.Fatal(err)
		}
		if i, bad := bitsDiffer(got.Data, want.Data); bad {
			t.Fatalf("n=%d: factor[%d] = %v, naive = %v (bit mismatch)", n, i, got.Data[i], want.Data[i])
		}
	}
}

// TestSolverBitIdentical pins Solver.TraceInverseSPD against the
// reference substitution on every shape, and Solver.SolveSPD against a
// solve through the reference factor.
func TestSolverBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Solver
	for _, shape := range kernelShapes {
		n := shape[1]
		a := randomSPD(t, rng, shape[0]+n, n)
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
		forwardSub(l, b, y)
		backSub(l, y, wantX)
		if err := s.SolveSPD(a, b, gotX); err != nil {
			t.Fatal(err)
		}
		if i, bad := bitsDiffer(gotX, wantX); bad {
			t.Fatalf("n=%d: SolveSPD x[%d] = %v, naive = %v (bit mismatch)", n, i, gotX[i], wantX[i])
		}
	}
}

// TestFactorizationErrorsMatchReference feeds both factorizations
// inputs that must fail — an indefinite matrix whose first bad pivot
// sits at each possible position, and NaN planted on and below the
// diagonal — and inputs with an infinite pivot that must not: the new
// kernel has to agree with the reference on which is which.
func TestFactorizationErrorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s Solver
	check := func(name string, a *Matrix) {
		t.Helper()
		n := a.Rows
		wantErr := naiveCholesky(a, New(n, n))
		if gotErr := choleskyInto(a, New(n, n)); !errors.Is(gotErr, wantErr) {
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
	for _, n := range []int{1, 2, 5, 7, 9, 22} {
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
	notSPD, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if err := choleskyInto(notSPD, New(2, 2)); !errors.Is(err, ErrNotSPD) {
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

func TestMulVecIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(23)
		m := randomMatrix(rng, rows, cols)
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := naiveMulVec(m, v)
		got := make([]float64, rows)
		if err := m.MulVecInto(got, v); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d (%dx%d): MulVecInto[%d] = %v, naive = %v",
					trial, rows, cols, i, got[i], want[i])
			}
		}
	}
	if err := New(2, 3).MulVecInto(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("out length mismatch should error")
	}
}

func TestScaleFrom(t *testing.T) {
	src, _ := FromRows([][]float64{{1, -2}, {3, 4}})
	dst := New(2, 2)
	if err := dst.ScaleFrom(src, 2); err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{2, -4}, {6, 8}})
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
		wantTr, err := a.TraceInverseSPD()
		if err != nil {
			t.Fatal(err)
		}
		if tr != wantTr {
			t.Fatalf("n=%d: Solver trace %v, Matrix trace %v", n, tr, wantTr)
		}
	}
	// Error paths.
	notSPD, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if err := s.SolveSPD(notSPD, []float64{1, 2}, make([]float64, 2)); err == nil {
		t.Error("non-SPD should error")
	}
	if _, err := s.TraceInverseSPD(notSPD); err == nil {
		t.Error("non-SPD trace should error")
	}
	id := Identity(3)
	if err := s.SolveSPD(id, []float64{1}, make([]float64, 3)); err == nil {
		t.Error("b length mismatch should error")
	}
	if err := s.SolveSPD(id, []float64{1, 2, 3}, make([]float64, 1)); err == nil {
		t.Error("x length mismatch should error")
	}
}

// TestKernelAllocGuard pins the zero-allocation contract of the Into
// kernels and the warmed-up Solver: a regression that reintroduces a
// per-call allocation fails here, not just in a benchmark nobody reads.
func TestKernelAllocGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randomMatrix(rng, 64, 12)
	v := make([]float64, 64)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	gram := New(12, 12)
	atv := make([]float64, 12)
	mv := make([]float64, 64)
	vcols := make([]float64, 12)
	for i := range vcols {
		vcols[i] = rng.NormFloat64()
	}
	var s Solver
	spd := m.AtA()
	if err := spd.AddDiagonal(0.5); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 12)
	if err := s.SolveSPD(spd, atv, x); err != nil { // warm the scratch
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"AtAInto", func() { _ = m.AtAInto(gram) }},
		{"AtVecInto", func() { _ = m.AtVecInto(atv, v) }},
		{"MulVecInto", func() { _ = m.MulVecInto(mv, vcols) }},
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
// timed at: the historical 256 x 41, and the 220 x 191 of the tuning
// pipeline's [8,14,4,1] surrogate — a 191 x 191 solve is ~75x the work
// of a 41 x 41 one, so only the second row shows what the trainer pays.
var benchShapes = [][2]int{{256, 41}, {220, 191}}

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

func BenchmarkMulVecInto(b *testing.B) {
	m, _, vc := benchMatrix(256, 41)
	out := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.MulVecInto(out, vc)
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
