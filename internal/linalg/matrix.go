// Package linalg implements the small amount of dense linear algebra
// that Rafiki's Levenberg-Marquardt / Bayesian-regularization neural
// network trainer needs: matrix products, transposes, symmetric
// positive-definite solves via Cholesky, and traces. Matrices are dense
// row-major float64.
//
// The hot kernels (AtA, AtVec, MulVec, the SPD solve) come in two
// forms: allocating convenience methods, and *Into variants writing
// into caller-owned buffers. The Into variants are what the trainer's
// inner loop uses — together with Solver they make an LM epoch
// allocation-free. The three O(n³)-class kernels (the Gram product,
// the Cholesky factorization, the trace of the inverse) each keep
// several output elements in registers at once, so the floating-point
// units see independent add chains instead of one; the vector kernels
// unroll the inner loop four-wide. Every one of them except MulVecInto
// keeps the exact per-element accumulation order of the naive loops,
// so its results are bit-identical to the reference implementations
// kept in kernels_test.go, not just close; MulVecInto combines four
// partial sums pairwise and is therefore reference-equal only to
// within rounding.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not (numerically) symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64

	// colMajor is AtAInto's scratch, the matrix transposed. It is sized
	// on first use and makes AtA/AtAInto (alone among the methods that
	// only read Data) unsafe to call concurrently on one receiver.
	colMajor []float64
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal
// length. The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: empty rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: ragged row %d: len %d, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("linalg: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowK := other.Data[k*other.Cols : (k+1)*other.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range rowK {
				rowOut[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.Rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes m * v into out (length m.Rows) without
// allocating. The dot product per row runs four accumulators wide, so
// the compiler can keep independent FMA chains in flight; the partial
// sums are combined pairwise.
func (m *Matrix) MulVecInto(out, v []float64) error {
	if m.Cols != len(v) {
		return fmt.Errorf("linalg: mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v))
	}
	if len(out) != m.Rows {
		return fmt.Errorf("linalg: mulvec out length %d, want %d", len(out), m.Rows)
	}
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n : (i+1)*n]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += row[j] * v[j]
			s1 += row[j+1] * v[j+1]
			s2 += row[j+2] * v[j+2]
			s3 += row[j+3] * v[j+3]
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; j < n; j++ {
			sum += row[j] * v[j]
		}
		out[i] = sum
	}
	return nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// AtA returns mᵀ * m, the Gram matrix, computed symmetrically. This is
// the Gauss-Newton approximation JᵀJ used by the LM trainer.
func (m *Matrix) AtA() *Matrix {
	out := New(m.Cols, m.Cols)
	m.ataInto(out)
	return out
}

// AtAInto computes mᵀ * m into dst, which must be m.Cols x m.Cols. m
// is first transposed into scratch it owns, so that each output
// element is a dot product of two contiguous runs; per output element
// the sample rows still accumulate in ascending order from zero, so
// for a finite m the result is bit-identical to the naive triple loop
// (which skips 0·x terms: adding ±0 to a sum that started at +0 never
// changes it, but 0·Inf would).
//
//rafiki:hot
func (m *Matrix) AtAInto(dst *Matrix) error {
	if dst.Rows != m.Cols || dst.Cols != m.Cols {
		return fmt.Errorf("linalg: AtA dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	m.ataInto(dst)
	return nil
}

//rafiki:hot
func (m *Matrix) ataInto(out *Matrix) {
	rows, cols := m.Rows, m.Cols
	if len(m.colMajor) != len(m.Data) {
		m.colMajor = make([]float64, len(m.Data))
	}
	t := m.colMajor
	for i := 0; i < rows; i++ {
		for j, v := range m.Data[i*cols : (i+1)*cols] {
			t[j*rows+i] = v
		}
	}
	gramRows(out.Data, t, cols, rows)
}

// gramRows writes the Gram matrix of the n rows of t (each m long,
// row-major) into the n x n dst: dst[a][b] = Σᵢ t[a][i]·t[b][i]. It
// works in 2 x 3 tiles of dst — six sums held in registers, fed by
// five loads per step; a 2 x 4 tile needs more registers than the
// compiler has and spills two of its sums — and every sum runs over i
// ascending, which is all that bit-identity with the naive loop needs.
// Tiles that would hang over the edge clamp their row indices to n-1
// and so recompute (and re-store) an element they already cover; a
// tile on the diagonal also computes an element below it, which the
// final mirror overwrites with the same bits (the products commute).
//
//rafiki:hot
func gramRows(dst, t []float64, n, m int) {
	for a0 := 0; a0 < n; a0 += 2 {
		a1 := min(a0+1, n-1)
		ra0 := t[a0*m : a0*m+m]
		ra1 := t[a1*m : a1*m+m][:len(ra0)]
		d0, d1 := dst[a0*n:(a0+1)*n], dst[a1*n:(a1+1)*n]
		for b0 := a0; b0 < n; b0 += 3 {
			b1, b2 := min(b0+1, n-1), min(b0+2, n-1)
			rb0 := t[b0*m : b0*m+m][:len(ra0)]
			rb1 := t[b1*m : b1*m+m][:len(ra0)]
			rb2 := t[b2*m : b2*m+m][:len(ra0)]
			var c00, c01, c02, c10, c11, c12 float64
			for i, x0 := range ra0 {
				x1 := ra1[i]
				y0, y1, y2 := rb0[i], rb1[i], rb2[i]
				c00 += x0 * y0
				c01 += x0 * y1
				c02 += x0 * y2
				c10 += x1 * y0
				c11 += x1 * y1
				c12 += x1 * y2
			}
			d0[b0], d0[b1], d0[b2] = c00, c01, c02
			d1[b0], d1[b1], d1[b2] = c10, c11, c12
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			dst[b*n+a] = dst[a*n+b]
		}
	}
}

// AtVec returns mᵀ * v (the Jᵀe product in LM updates).
func (m *Matrix) AtVec(v []float64) ([]float64, error) {
	out := make([]float64, m.Cols)
	if err := m.AtVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// AtVecInto computes mᵀ * v into out (length m.Cols) without
// allocating, with the inner axpy unrolled four-wide. Per output
// element the accumulation order over sample rows is unchanged, so the
// result is bit-identical to the naive loop.
//
//rafiki:hot
func (m *Matrix) AtVecInto(out, v []float64) error {
	if m.Rows != len(v) {
		return fmt.Errorf("linalg: atvec shape mismatch %dx%d with %d", m.Rows, m.Cols, len(v)) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	if len(out) != m.Cols {
		return fmt.Errorf("linalg: atvec out length %d, want %d", len(out), m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	cols := m.Cols
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*cols : (i+1)*cols]
		j := 0
		for ; j+4 <= cols; j += 4 {
			out[j] += row[j] * vi
			out[j+1] += row[j+1] * vi
			out[j+2] += row[j+2] * vi
			out[j+3] += row[j+3] * vi
		}
		for ; j < cols; j++ {
			out[j] += row[j] * vi
		}
	}
	return nil
}

// ScaleFrom overwrites m with src scaled by s. Shapes must match. This
// is the trainer's "H = beta * JᵀJ" step done without a Clone.
//
//rafiki:hot
func (m *Matrix) ScaleFrom(src *Matrix, s float64) error {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		return fmt.Errorf("linalg: ScaleFrom shape %dx%d from %dx%d", m.Rows, m.Cols, src.Rows, src.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	for i, v := range src.Data {
		m.Data[i] = v * s
	}
	return nil
}

// AddDiagonal adds v to every diagonal element in place (the LM damping
// term mu*I). The matrix must be square.
//
//rafiki:hot
func (m *Matrix) AddDiagonal(v float64) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: AddDiagonal on non-square %dx%d", m.Rows, m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return nil
}

// Trace returns the sum of the diagonal of a square matrix.
func (m *Matrix) Trace() (float64, error) {
	if m.Rows != m.Cols {
		return 0, fmt.Errorf("linalg: trace of non-square %dx%d", m.Rows, m.Cols)
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t, nil
}

// choleskyInto factors m = L*Lᵀ into the caller-owned l, writing only
// the lower triangle (the substitution routines never read above the
// diagonal, so the upper triangle may hold stale values).
//
//rafiki:hot
func choleskyInto(m, l *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: cholesky of non-square %dx%d", m.Rows, m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	return cholesky(m.Data, l.Data, m.Rows)
}

// cholesky is the factorization kernel on n x n row-major a and l. It
// goes column by column: the pivot l[j][j], then the rows below it
// four at a time, each element l[i][j] = (a[i][j] - Σₖ l[i][k]·l[j][k])
// / l[j][j] with k ascending over 0..j-1. Everything such a sum reads —
// row j and row i left of column j — was finished by earlier columns,
// so the four sums of a pass are independent add chains that share the
// loads of row j. The row-by-row textbook loop computes every element
// from the same operands in the same order, and meets the pivots in
// the same order, so factor and error are identical to it.
//
//rafiki:hot
func cholesky(a, l []float64, n int) error {
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		pivot := a[j*n+j]
		for _, v := range lj {
			pivot -= v * v
		}
		if pivot <= 0 || math.IsNaN(pivot) {
			return ErrNotSPD
		}
		d := math.Sqrt(pivot)
		l[j*n+j] = d
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := l[i*n : i*n+j][:len(lj)]
			r1 := l[(i+1)*n : (i+1)*n+j][:len(lj)]
			r2 := l[(i+2)*n : (i+2)*n+j][:len(lj)]
			r3 := l[(i+3)*n : (i+3)*n+j][:len(lj)]
			s0, s1, s2, s3 := a[i*n+j], a[(i+1)*n+j], a[(i+2)*n+j], a[(i+3)*n+j]
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			l[i*n+j], l[(i+1)*n+j], l[(i+2)*n+j], l[(i+3)*n+j] = s0/d, s1/d, s2/d, s3/d
		}
		for ; i < n; i++ {
			r := l[i*n : i*n+j][:len(lj)]
			sum := a[i*n+j]
			for k, v := range lj {
				sum -= r[k] * v
			}
			l[i*n+j] = sum / d
		}
	}
	return nil
}

// Cholesky computes the lower-triangular factor L with m = L*Lᵀ. It
// returns ErrNotSPD when m is not positive definite.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d", m.Rows, m.Cols)
	}
	l := New(m.Rows, m.Rows)
	if err := choleskyInto(m, l); err != nil {
		return nil, err
	}
	return l, nil
}

// forwardSub solves L*y = b for lower-triangular l.
//
//rafiki:hot
func forwardSub(l *Matrix, b, y []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
}

// backSub solves Lᵀ*x = y for lower-triangular l.
//
//rafiki:hot
func backSub(l *Matrix, y, x []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
}

// SolveSPD solves m*x = b for symmetric positive-definite m via
// Cholesky factorization.
func (m *Matrix) SolveSPD(b []float64) ([]float64, error) {
	var s Solver
	x := make([]float64, m.Rows)
	if err := s.SolveSPD(m, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// TraceInverseSPD returns tr(m⁻¹) for symmetric positive-definite m
// without forming the inverse: with m = L*Lᵀ,
// tr(m⁻¹) = ||L⁻¹||_F², accumulated one forward substitution per
// column. This is the quantity MacKay's evidence update needs.
func (m *Matrix) TraceInverseSPD() (float64, error) {
	var s Solver
	return s.TraceInverseSPD(m)
}

// Solver owns the factorization and substitution scratch for repeated
// SPD solves of the same (or varying) dimension. The LM trainer keeps
// one per training run: each damping retry re-factors into the same
// buffers, making the epoch loop allocation-free. The zero value is
// ready to use. Not safe for concurrent use.
type Solver struct {
	l *Matrix
	// y holds four substitution vectors: SolveSPD uses the first,
	// TraceInverseSPD all four.
	y []float64
}

// ensure sizes the scratch for n-by-n systems.
//
//rafiki:hot
func (s *Solver) ensure(n int) {
	if len(s.y) != 4*n {
		s.l = New(n, n) //lint:allow hotalloc sized on first use and on a change of dimension only
		s.y = make([]float64, 4*n)
	}
}

// SolveSPD solves m*x = b into caller-owned x (length m.Rows), reusing
// the solver's factorization scratch. Returns ErrNotSPD when m is not
// positive definite; x's contents are then unspecified.
//
//rafiki:hot
func (s *Solver) SolveSPD(m *Matrix, b, x []float64) error {
	if m.Rows != len(b) {
		return fmt.Errorf("linalg: solve shape mismatch %dx%d with %d", m.Rows, m.Cols, len(b)) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	if len(x) != m.Rows {
		return fmt.Errorf("linalg: solve out length %d, want %d", len(x), m.Rows) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	s.ensure(m.Rows)
	if err := choleskyInto(m, s.l); err != nil {
		return err
	}
	y := s.y[:m.Rows]
	forwardSub(s.l, b, y)
	backSub(s.l, y, x)
	return nil
}

// TraceInverseSPD is the scratch-reusing form of
// Matrix.TraceInverseSPD.
//
//rafiki:hot
func (s *Solver) TraceInverseSPD(m *Matrix) (float64, error) {
	n := m.Rows
	s.ensure(n)
	if err := choleskyInto(m, s.l); err != nil {
		return 0, err
	}
	return traceInverse(s.l.Data, s.y, n), nil
}

// traceInverse returns ||L⁻¹||_F² for the n x n lower-triangular l of
// a successful factorization, forward-substituting four unit columns
// j..j+3 at a time into the four n-vectors of y: one pass over a row
// of l feeds four independent chains. The reference substitutes one
// column at a time, starting column c at row c; here columns j+1..j+3
// also run over the rows above their own, which computes +0 there and
// then subtracts l[i][k]·(+0) from their sums — a no-op bit for bit,
// because a sum that starts at +0 or 1 cannot be -0 and every
// off-diagonal of l is finite (an infinite or NaN one would have
// failed its row's pivot). The squares go into the trace once a block
// is done, column by column and row by row as the reference adds
// them. A last block narrower than four substitutes zero columns for
// the missing ones.
//
//rafiki:hot
func traceInverse(l, y []float64, n int) float64 {
	var trace float64
	for j := 0; j < n; j += 4 {
		for i := j; i < n; i++ {
			li := l[i*n+j : i*n+i]
			y0 := y[j:i][:len(li)]
			y1 := y[n+j : n+i][:len(li)]
			y2 := y[2*n+j : 2*n+i][:len(li)]
			y3 := y[3*n+j : 3*n+i][:len(li)]
			var s0, s1, s2, s3 float64
			switch i - j {
			case 0:
				s0 = 1
			case 1:
				s1 = 1
			case 2:
				s2 = 1
			case 3:
				s3 = 1
			}
			for k, v := range li {
				s0 -= v * y0[k]
				s1 -= v * y1[k]
				s2 -= v * y2[k]
				s3 -= v * y3[k]
			}
			d := l[i*n+i]
			y[i], y[n+i], y[2*n+i], y[3*n+i] = s0/d, s1/d, s2/d, s3/d
		}
		for c := 0; c < 4 && j+c < n; c++ {
			for _, v := range y[c*n+j+c : (c+1)*n] {
				trace += v * v
			}
		}
	}
	return trace
}

// InverseSPD returns the inverse of a symmetric positive-definite
// matrix. Used for the trace term in MacKay's evidence update. The
// matrix is factored once; each column then costs two triangular
// substitutions.
func (m *Matrix) InverseSPD() (*Matrix, error) {
	n := m.Rows
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	inv := New(n, n)
	y := make([]float64, n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		// Forward substitution of the j-th unit vector: L*y = e_j.
		for i := 0; i < n; i++ {
			var sum float64
			if i == j {
				sum = 1
			}
			for k := 0; k < i; k++ {
				sum -= l.At(i, k) * y[k]
			}
			y[i] = sum / l.At(i, i)
		}
		// Back substitution: Lᵀ*x = y.
		for i := n - 1; i >= 0; i-- {
			sum := y[i]
			for k := i + 1; k < n; k++ {
				sum -= l.At(k, i) * x[k]
			}
			x[i] = sum / l.At(i, i)
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv, nil
}
