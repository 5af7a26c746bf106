package linalg

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"

	"rafiki/internal/lint"
)

// TestProductsRounded pins the guard that keeps the portable paths
// bit-identical on every architecture: in linalg's code, and in nn's
// inference kernel (dense, whose portable block the assembly must
// match), every float64 product that is added or subtracted is written
// float64(x*y), which the Go spec rounds, so a compiler that fuses
// multiply-adds (arm64 does) cannot change a chain. The amd64 compiler
// never fuses, so no run on this host could catch a dropped guard; the
// source can.
func TestProductsRounded(t *testing.T) {
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []struct {
		dir, path, only string // only: the one function to check, "" for all
	}{
		{".", "rafiki/internal/linalg", ""},
		{"../nn", "rafiki/internal/nn", "dense"},
	} {
		pkg, err := l.LoadDir(target.dir, target.path)
		if err != nil {
			t.Fatal(err)
		}
		fused := func(e ast.Expr) bool {
			m, ok := ast.Unparen(e).(*ast.BinaryExpr)
			return ok && m.Op == token.MUL && types.Identical(pkg.Info.TypeOf(m), types.Typ[types.Float64])
		}
		checked := 0
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); target.only != "" && (!ok || fn.Name.Name != target.only) {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					var operands []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
							operands = n.Rhs
						}
					case *ast.BinaryExpr:
						if n.Op == token.ADD || n.Op == token.SUB {
							operands = []ast.Expr{n.X, n.Y}
						}
					}
					for _, e := range operands {
						checked++
						if fused(e) {
							t.Errorf("%s: product added or subtracted unrounded; write float64(x*y)", pkg.Fset.Position(e.Pos()))
						}
					}
					return true
				})
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no additions found: the walk is broken", target.path)
		}
	}
}
