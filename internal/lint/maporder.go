package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fmtOutputFuncs are fmt functions that emit to a writer or stream;
// calling one inside a map range leaks iteration order into output.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// MapOrder flags `range` over a map whose body has an order-sensitive
// effect — appending to a slice that outlives the loop, writing
// output, or accumulating floats across iterations — unless the loop
// is the sorted-key-extraction idiom itself (the only effect is
// appending to one slice that a later statement in the same block
// sorts). Go randomizes map iteration order, so any of these effects
// makes results differ run to run; extract keys, sort them, and range
// over the sorted slice instead.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration with order-sensitive effects (append/output/float accumulation) must go through sorted keys",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				default:
					return true
				}
				for i, st := range list {
					rs, ok := st.(*ast.RangeStmt)
					if !ok || !isMapType(pass.Pkg.Info, rs.X) {
						continue
					}
					checkMapRange(pass, rs, list[i+1:])
				}
				return true
			})
		}
	},
}

// isMapType reports whether expr's type is (or points at) a map.
func isMapType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, isMap := t.(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for order-sensitive
// effects and reports them, allowing the append-then-sort idiom.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := pass.Pkg.Info
	body := rs.Body
	// appendTargets collects loop-external slice variables appended to
	// in the body; they are tolerated iff each is sorted afterwards.
	appendTargets := make(map[types.Object]token.Pos)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if !isFloat(info, lhs) {
						continue
					}
					if obj, _ := lvalueRoot(info, lhs); obj != nil && !within(body, obj.Pos()) {
						pass.Reportf(n.Pos(), "floating-point accumulation into %q inside map range: iteration order changes the rounding; range over sorted keys", obj.Name())
					}
				}
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) || i >= len(n.Lhs) {
						continue
					}
					if obj, _ := lvalueRoot(info, n.Lhs[i]); obj != nil && !within(body, obj.Pos()) {
						appendTargets[obj] = n.Pos()
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if path, name, ok := pkgFunc(info, sel); ok && path == "fmt" && fmtOutputFuncs[name] {
					pass.Reportf(n.Pos(), "fmt.%s inside map range writes in iteration order; range over sorted keys", name)
					return true
				}
				if isOutwardWrite(info, sel, body) {
					pass.Reportf(n.Pos(), "%s inside map range writes in iteration order; range over sorted keys", sel.Sel.Name)
				}
			}
		}
		return true
	})

	for obj, pos := range appendTargets {
		if !sortedAfter(info, rest, obj) {
			pass.Reportf(pos, "append to %q inside map range without sorting afterwards: slice order follows randomized map order", obj.Name())
		}
	}
}

// isFloat reports whether expr has floating-point (or complex) type.
func isFloat(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// within reports whether pos falls inside node's source extent.
func within(node ast.Node, pos token.Pos) bool {
	return node.Pos() <= pos && pos < node.End()
}

// isOutwardWrite reports whether sel is a Write* method call on a
// receiver that outlives the loop body (e.g. a strings.Builder or
// io.Writer held outside), which would serialize map order into the
// output stream.
func isOutwardWrite(info *types.Info, sel *ast.SelectorExpr, body ast.Node) bool {
	name := sel.Sel.Name
	if name != "Write" && name != "WriteString" && name != "WriteByte" && name != "WriteRune" {
		return false
	}
	if info.Selections[sel] == nil {
		return false // package selector or conversion, not a method
	}
	obj, _ := lvalueRoot(info, sel.X)
	return obj != nil && !within(body, obj.Pos())
}

// sortedAfter reports whether a statement in rest passes obj to a
// sort.* or slices.Sort* call — the sorted-key-extraction idiom that
// legitimizes appending under map iteration.
func sortedAfter(info *types.Info, rest []ast.Stmt, obj types.Object) bool {
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(info, sel)
			if !ok {
				return true
			}
			isSort := path == "sort" || (path == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc"))
			if !isSort {
				return true
			}
			for _, arg := range call.Args {
				if usesObject(info, arg, obj) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
