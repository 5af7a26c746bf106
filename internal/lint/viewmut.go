package lint

// viewmut enforces the shared read-only view convention from DESIGN.md
// §14: a value returned by a //rafiki:view function (an SSTable's run,
// filter and bitmap, Engine.Params) is shared with the
// owner and must never be written through — no index assignment, no
// append into it, no handing it to a callee that mutates its argument.
// Callers that need a private copy must make one explicitly.

import (
	"go/ast"
	"go/types"
)

// ViewMut flags writes through //rafiki:view results.
var ViewMut = &Analyzer{
	Name: "viewmut",
	Doc:  "results of //rafiki:view functions are shared read-only views and must not be written through",
	Run:  perFunc(checkViewMut),
}

// mutatingStdFuncs lists stdlib functions that write through their
// (first) slice/map argument. The facts layer covers module-internal
// callees; these are the blessed external mutators worth knowing about.
var mutatingStdFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true,
	},
}

func checkViewMut(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// propagateComposite=false: a struct value holding a view is not
	// itself a view — writes to the struct's own fields are fine; only
	// writes through the view's backing matter, and those are reached
	// via the field-read rule in taintOf.
	t := annotatedTaint(pass, fd, "view", func(cf *FuncFacts) bool { return cf.View }, false)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if src := viewWriteTarget(info, t, lhs); src != nil {
					pass.Reportf(n.Pos(), "write through %s; views are shared read-only (copy before mutating)", src.what)
				}
			}
		case *ast.IncDecStmt:
			if src := viewWriteTarget(info, t, n.X); src != nil {
				pass.Reportf(n.Pos(), "write through %s; views are shared read-only (copy before mutating)", src.what)
			}
		case *ast.CallExpr:
			// append(view, ...) grows into (or re-uses) the view's
			// backing array, wherever the call appears.
			if id, ok := n.Fun.(*ast.Ident); ok && builtinNamed(info, id, "append") && len(n.Args) > 0 {
				if src := t.taintOf(n.Args[0]); src != nil {
					pass.Reportf(n.Pos(), "append into %s; views are shared read-only (copy before growing)", src.what)
				}
				return true
			}
			checkViewMutCall(pass, info, t, n)
		}
		return true
	})
}

// viewWriteTarget reports the taint source when lhs writes through a
// tainted view: an index/deref step over a tainted base. A plain
// rebind (v = other) is fine — it drops the alias, not the view.
func viewWriteTarget(info *types.Info, t *taintSet, lhs ast.Expr) *taintSource {
	switch e := lhs.(type) {
	case *ast.IndexExpr:
		if src := t.taintOf(e.X); src != nil {
			return src
		}
		return viewWriteTarget(info, t, e.X)
	case *ast.StarExpr:
		if src := t.taintOf(e.X); src != nil {
			return src
		}
		return viewWriteTarget(info, t, e.X)
	case *ast.SelectorExpr:
		// view.Field = x writes through a pointer-shaped view.
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if src := t.taintOf(e.X); src != nil {
				if tv, ok := info.Types[e.X]; ok && pointerShaped(tv.Type) {
					return src
				}
			}
		}
		return viewWriteTarget(info, t, e.X)
	case *ast.ParenExpr:
		return viewWriteTarget(info, t, e.X)
	}
	return nil
}

// checkViewMutCall flags tainted views passed where they will be
// mutated: builtins (clear, delete, copy-dst), known stdlib mutators,
// and module callees whose facts mutate that parameter.
func checkViewMutCall(pass *Pass, info *types.Info, t *taintSet, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "clear", "delete":
				if len(call.Args) > 0 {
					if src := t.taintOf(call.Args[0]); src != nil {
						pass.Reportf(call.Pos(), "%s clears %s; views are shared read-only", fun.Name, src.what)
					}
				}
			case "copy":
				if len(call.Args) > 0 {
					if src := t.taintOf(call.Args[0]); src != nil {
						pass.Reportf(call.Pos(), "copy writes into %s; views are shared read-only", src.what)
					}
				}
			}
			return
		}
	case *ast.SelectorExpr:
		if path, name, ok := pkgFunc(info, fun); ok {
			if mutatingStdFuncs[path][name] && len(call.Args) > 0 {
				if src := t.taintOf(call.Args[0]); src != nil {
					pass.Reportf(call.Args[0].Pos(), "%s.%s mutates %s in place; sort a copy instead", path, name, src.what)
				}
				return
			}
		}
	}
	// Module callee with mutation facts.
	callee := CalleeObject(info, call)
	cf := pass.Facts.Of(callee)
	if cf == nil {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	args := callArgs(info, call)
	recvIncluded := isMethodCallOnValue(info, call)
	for ai, arg := range args {
		src := t.taintOf(arg)
		if src == nil {
			continue
		}
		if ai == 0 && recvIncluded {
			if cf.MutatesRecv {
				pass.Reportf(arg.Pos(), "%s mutates its receiver, which aliases %s; views are shared read-only", shortFuncName(callee), src.what)
			}
			continue
		}
		pi := paramIndexFor(sig, ai, recvIncluded)
		if pi >= 0 && pi < len(cf.MutatesParam) && cf.MutatesParam[pi] {
			pass.Reportf(arg.Pos(), "%s passed to %s, which writes through that parameter; views are shared read-only", src.what, shortFuncName(callee))
		}
	}
}
