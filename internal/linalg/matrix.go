// Package linalg is the dense linear algebra of Rafiki's
// Levenberg-Marquardt / Bayesian-regularization trainer: the Gram
// product JᵀJ, the Jᵀe product, symmetric positive-definite solves by
// Cholesky factorization, and the trace of the inverse that MacKay's
// evidence update needs. Matrices are dense row-major float64.
//
// The kernels write into caller-owned buffers (AtAInto, AtVecInto, and
// Solver, which keeps its factor and substitution scratch), so an LM
// epoch allocates nothing. The factor is kept as U = Lᵀ, row-major
// upper triangular, so that everything the O(n³) kernels do is one
// block primitive: 16 output elements, each a chain
// acc ∓= Σₖ col[k·cs]·row[k·rs+l] over k ascending, where the row
// operands are contiguous. The Gram product runs it two output rows at
// a time straight off the row-major Jacobian; the factorization builds
// each row of U from the rows above it; forward substitution and the
// trace of the inverse run it down the columns of U. On amd64 hosts
// whose CPUID reports AVX (and whose OS saves the YMM state) a
// full-width block is one assembly loop of VEX multiplies and adds,
// never a fused multiply-add; elsewhere the same outer loops call a
// pure-Go block with the same per-element order, its products written
// float64(x*y) so that no compiler fuses them. There is no knob.
//
// Each lane is a different output element, so every element is the
// reference loop's own chain — the same operands, the same order, the
// same rounding — and every kernel is bit-identical to the naive
// implementations kept in kernels_test.go, on either path.
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
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// AtA returns mᵀ * m, the Gram matrix, computed symmetrically. This is
// the Gauss-Newton approximation JᵀJ used by the LM trainer.
func (m *Matrix) AtA() *Matrix {
	out := New(m.Cols, m.Cols)
	gram(out.Data, m.Data, m.Cols, m.Rows)
	return out
}

// AtAInto computes mᵀ * m into dst, which must be m.Cols x m.Cols. Per
// output element the sample rows accumulate in ascending order from
// zero, so for a finite m the result is bit-identical to the naive
// triple loop (which skips 0·x terms: adding ±0 to a sum that started
// at +0 never changes it, but 0·Inf would). It only reads m.
//
//rafiki:hot
func (m *Matrix) AtAInto(dst *Matrix) error {
	if dst.Rows != m.Cols || dst.Cols != m.Cols {
		return fmt.Errorf("linalg: AtA dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	gram(dst.Data, m.Data, m.Cols, m.Rows)
	return nil
}

// gram writes the Gram matrix of the m x n row-major j into the n x n
// dst: dst[a][b] = Σᵢ j[i][a]·j[i][b], i ascending. Rows a go two at a
// time (the last alone when n is odd, computed twice) in blocks of
// lanes b ≥ a; a block that would hang over the right edge moves left
// to end at it, recomputing lanes it shares with the block before — or,
// near the last rows, lanes below the diagonal, which the final mirror
// overwrites with the same bits (the products commute).
//
//rafiki:hot
func gram(dst, j []float64, n, m int) {
	w := min(blockW, n)
	for a0 := 0; a0 < n; a0 += 2 {
		a1 := min(a0+1, n-1)
		for b0 := a0; b0 < n; b0 += w {
			b := min(b0, n-w)
			gramBlock(dst[a0*n+b:a0*n+b+w], dst[a1*n+b:a1*n+b+w], j[a0:], j[a1:], j[b:], m, n)
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
			out[j] += float64(row[j] * vi)
			out[j+1] += float64(row[j+1] * vi)
			out[j+2] += float64(row[j+2] * vi)
			out[j+3] += float64(row[j+3] * vi)
		}
		for ; j < cols; j++ {
			out[j] += float64(row[j] * vi)
		}
	}
	return nil
}

// ScaleFrom overwrites m with src scaled by s. Shapes must match. This
// is the trainer's "H = beta * JᵀJ" step done without a copy.
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

// cholesky factors the n x n row-major a = L·Lᵀ into u = Lᵀ, reading
// only a's lower triangle; c is n of scratch. Row j of u is column j of
// L: u[j][i] = (a[i][j] - Σₖ u[k][j]·u[k][i]) / u[j][j] with k ascending
// over 0..j-1 — column j of u broadcast against the contiguous rows
// above, all finished by earlier rows — and the pivot is its lane i = j
// before the square root. The textbook row-by-row loop computes every
// element from the same operands in the same order and meets the
// pivots in the same order, so factor and error are identical to it.
// The block holding the pivot runs undivided and divides its lanes
// past the pivot once the root is known; the later blocks divide in
// the kernel. A block that would hang over the right edge moves left
// to end at it: it recomputes lanes already done, or, in the last rows,
// writes lanes below the diagonal of u, which nothing reads.
//
//rafiki:hot
func cholesky(a, u, c []float64, n int) error {
	w := min(blockW, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			c[i] = a[i*n+j]
		}
		row := u[j*n : (j+1)*n]
		s := min(j, n-w)
		subBlock(row[s:s+w], c[s:], u[j:], u[s:], j, n, n, 1)
		pivot := row[j]
		if pivot <= 0 || math.IsNaN(pivot) {
			return ErrNotSPD
		}
		d := math.Sqrt(pivot)
		row[j] = d
		for i := j + 1; i < s+w; i++ {
			row[i] /= d
		}
		for i0 := s + w; i0 < n; i0 += w {
			b := min(i0, n-w)
			subBlock(row[b:b+w], c[b:], u[j:], u[b:], j, n, n, d)
		}
	}
	return nil
}

// forwardSub solves Uᵀ·y = b (L·y = b) for the factor u:
// y[i] = (b[i] - Σₖ u[k][i]·y[k]) / u[i][i], k ascending. A block of
// lanes takes the terms of every finished y[k] in one pass down the
// rows of u, then finishes its own elements in order, each adding the
// block's earlier ones to its chain.
//
//rafiki:hot
func forwardSub(u, b, y []float64, n int) {
	w := min(blockW, n)
	var acc [blockW]float64
	for i0 := 0; i0 < n; i0 += w {
		s := min(i0, n-w)
		subBlock(acc[:w], b[s:], y, u[s:], i0, 1, n, 1)
		for i := i0; i < min(i0+w, n); i++ {
			sum := acc[i-s]
			for k := i0; k < i; k++ {
				sum -= float64(u[k*n+i] * y[k])
			}
			y[i] = sum / u[i*n+i]
		}
	}
}

// backSub solves U·x = y (Lᵀ·x = y) for the factor u:
// x[i] = (y[i] - Σₖ u[i][k]·x[k]) / u[i][i], k ascending over the
// contiguous tail of row i.
//
//rafiki:hot
func backSub(u, y, x []float64, n int) {
	for i := n - 1; i >= 0; i-- {
		ui := u[i*n+i+1 : (i+1)*n]
		xs := x[i+1 : n][:len(ui)]
		sum := y[i]
		for k, v := range ui {
			sum -= float64(v * xs[k])
		}
		x[i] = sum / u[i*n+i]
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

// Solver owns the factorization and substitution scratch for repeated
// SPD solves of the same (or varying) dimension. The LM trainer keeps
// one per training run: each damping retry re-factors into the same
// buffers, making the epoch loop allocation-free. The zero value is
// ready to use. Not safe for concurrent use.
type Solver struct {
	// u is the factor Lᵀ (n x n, upper triangle), c the column being
	// factored, y the substitution scratch: blockW·n, which the trace's
	// blocks of unit columns fill and a solve uses n of.
	u, c, y []float64
}

// ensure sizes the scratch for n-by-n systems.
//
//rafiki:hot
func (s *Solver) ensure(n int) {
	if len(s.c) != n {
		buf := make([]float64, n*n+n+blockW*n) //lint:allow hotalloc sized on first use and on a change of dimension only
		s.u, s.c, s.y = buf[:n*n], buf[n*n:n*n+n], buf[n*n+n:]
	}
}

// factor checks m's shape and factors it into the solver's scratch.
//
//rafiki:hot
func (s *Solver) factor(m *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: cholesky of non-square %dx%d", m.Rows, m.Cols) //lint:allow hotalloc a shape mismatch is a caller bug, never the epoch loop's path
	}
	s.ensure(m.Rows)
	return cholesky(m.Data, s.u, s.c, m.Rows)
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
	if err := s.factor(m); err != nil {
		return err
	}
	n := m.Rows
	y := s.y[:n]
	forwardSub(s.u, b, y, n)
	backSub(s.u, y, x, n)
	return nil
}

// TraceInverseSPD returns tr(m⁻¹) for symmetric positive-definite m
// without forming the inverse: with m = L·Lᵀ, tr(m⁻¹) = ||L⁻¹||_F², one
// forward substitution per unit column. This is the quantity MacKay's
// evidence update needs. It returns ErrNotSPD when m is not positive
// definite.
//
//rafiki:hot
func (s *Solver) TraceInverseSPD(m *Matrix) (float64, error) {
	if err := s.factor(m); err != nil {
		return 0, err
	}
	return traceInverse(s.u, s.y, m.Rows), nil
}

// unitLanes[blockW-r:] is a block of lanes whose lane r alone is 1, and
// unitLanes[:blockW] one of zeros.
var unitLanes = func() (u [2 * blockW]float64) {
	u[blockW] = 1
	return u
}()

// traceInverse returns ||L⁻¹||_F² for the factor u = Lᵀ of a successful
// factorization. The reference substitutes one unit column j at a time:
// y[i] = (δᵢⱼ - Σₖ L[i][k]·y[k]) / L[i][i] over i ≥ j with k ascending
// from j, adding each y[i]² to the trace as it is produced. Here the
// lanes are blockW unit columns b..b+w-1 at once, their substitutions
// the rows of y (w wide, row r for i = b+r): each row is one block
// against the rows above it, with column i of u as the broadcast and
// u[i][i] as the divisor. Lane j's terms for k in b..j-1 multiply its
// own entries above row j, which are exactly +0, and subtracting ±0
// from a sum that starts at +0 or 1 leaves it unchanged bit for bit
// (it cannot be -0, and every off-diagonal of u is finite: an infinite
// or NaN one would have failed its row's pivot). The squares go into
// the trace once a block is done, column by column and row by row as
// the reference adds them; the last block moves left to end at n and
// adds only the columns not yet added.
//
//rafiki:hot
func traceInverse(u, y []float64, n int) float64 {
	w := min(blockW, n)
	var trace float64
	for done := 0; done < n; done = min(done+w, n) {
		b := min(done, n-w)
		for i := b; i < n; i++ {
			r := i - b
			src := unitLanes[:]
			if r < w {
				src = unitLanes[blockW-r:]
			}
			subBlock(y[r*w:(r+1)*w], src, u[b*n+i:], y, r, n, w, u[i*n+i])
		}
		for l := done - b; l < w; l++ {
			for r := l; r < n-b; r++ {
				v := y[r*w+l]
				trace += float64(v * v)
			}
		}
	}
	return trace
}
