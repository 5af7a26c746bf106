package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func matEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// mulVec is the reference product m·v.
func mulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		for j := 0; j < m.Cols; j++ {
			out[i] += m.At(i, j) * v[j]
		}
	}
	return out
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 6, 4)
	fast := m.AtA()
	slow := New(m.Cols, m.Cols)
	for i := 0; i < m.Cols; i++ {
		for j := 0; j < m.Cols; j++ {
			var sum float64
			for k := 0; k < m.Rows; k++ {
				sum += m.At(k, i) * m.At(k, j)
			}
			slow.Set(i, j, sum)
		}
	}
	if !matEqual(fast, slow, 1e-10) {
		t.Error("AtA != Transpose * M")
	}
}

func TestAtVecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 6, 4)
	v := make([]float64, 6)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	fast, err := m.AtVec(v)
	if err != nil {
		t.Fatal(err)
	}
	slow := mulVec(transpose(m), v)
	for i := range fast {
		if math.Abs(fast[i]-slow[i]) > 1e-10 {
			t.Fatalf("AtVec[%d] = %v, want %v", i, fast[i], slow[i])
		}
	}
	if _, err := m.AtVec([]float64{1}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestAddDiagonalAndTrace(t *testing.T) {
	m := identity(3)
	if err := m.AddDiagonal(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 3
			}
			if m.At(i, j) != want {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
	rect := New(2, 3)
	if err := rect.AddDiagonal(1); err == nil {
		t.Error("AddDiagonal on rectangular should error")
	}
}

func TestCholeskyAndSolve(t *testing.T) {
	// A known SPD matrix.
	a := fromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	u, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	wantL := fromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(u.At(j, i)-wantL.At(i, j)) > 1e-10 {
				t.Errorf("u[%d][%d] = %v, want L[%d][%d] = %v", j, i, u.At(j, i), i, j, wantL.At(i, j))
			}
		}
	}

	x, err := a.SolveSPD([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	back := mulVec(a, x)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(back[i]-want) > 1e-8 {
			t.Fatalf("A*x[%d] = %v, want %v", i, back[i], want)
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := factor(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("want ErrNotSPD, got %v", err)
	}
	var s Solver
	if err := s.SolveSPD(New(2, 3), []float64{1, 2}, make([]float64, 2)); err == nil {
		t.Error("rectangular cholesky should error")
	}
}

func TestSolveSPDRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		j := randomMatrix(rng, n+3, n)
		a := j.AtA() // SPD with probability 1
		if err := a.AddDiagonal(0.1); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := a.SolveSPD(b)
		if err != nil {
			t.Fatal(err)
		}
		back := mulVec(a, x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-6 {
				t.Fatalf("trial %d: residual %v", trial, math.Abs(back[i]-b[i]))
			}
		}
	}
}

// TestInverseSPD solves for every unit column of A, on both sides of
// the block width, and requires the columns to form A⁻¹: A·X = I.
func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{5, 20} {
		j := randomMatrix(rng, n+3, n)
		a := j.AtA()
		if err := a.AddDiagonal(0.5); err != nil {
			t.Fatal(err)
		}
		var s Solver
		inv := New(n, n)
		e, x := make([]float64, n), make([]float64, n)
		for c := 0; c < n; c++ {
			e[c] = 1
			if err := s.SolveSPD(a, e, x); err != nil {
				t.Fatal(err)
			}
			e[c] = 0
			for i, v := range x {
				inv.Set(i, c, v)
			}
		}
		for c := 0; c < n; c++ {
			col := make([]float64, n)
			for i := range col {
				col[i] = inv.At(i, c)
			}
			for i, v := range mulVec(a, col) {
				want := 0.0
				if i == c {
					want = 1
				}
				if math.Abs(v-want) > 1e-8 {
					t.Fatalf("n=%d: (A·A⁻¹)[%d][%d] = %v, want %v", n, i, c, v, want)
				}
			}
		}
	}
}

func TestSolveShapeMismatch(t *testing.T) {
	a := identity(3)
	if _, err := a.SolveSPD([]float64{1, 2}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 1) should panic")
		}
	}()
	New(0, 1)
}

// TestTraceInverseSPD checks tr(A⁻¹) against the trace of an inverse
// built column by column from solves.
func TestTraceInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 23} {
		j := randomMatrix(rng, n+4, n)
		a := j.AtA()
		if err := a.AddDiagonal(0.3); err != nil {
			t.Fatal(err)
		}
		var wantTr float64
		e := make([]float64, n)
		for c := 0; c < n; c++ {
			e[c] = 1
			x, err := a.SolveSPD(e)
			if err != nil {
				t.Fatal(err)
			}
			e[c] = 0
			wantTr += x[c]
		}
		var s Solver
		got, err := s.TraceInverseSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantTr) > 1e-8*math.Abs(wantTr) {
			t.Errorf("n=%d: TraceInverseSPD = %v, want %v", n, got, wantTr)
		}
	}
	var s Solver
	if _, err := s.TraceInverseSPD(fromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Error("non-SPD should error")
	}
}
