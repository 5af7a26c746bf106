package lint

// scratchescape enforces the owner-scratch convention from DESIGN.md
// §14: a value returned by a //rafiki:scratch function (memtable.Drain,
// config.Space.ResolveInto targets, pool buffers) is owned by the
// callee and valid only until its next call. Such a value must be
// consumed or copied inside the receiving frame — storing it into a
// struct field or global, capturing it in a closure, sending it on a
// channel, appending it into retained storage, passing it to a callee
// that retains its argument, or returning it past the owning frame all
// let stale scratch leak into a future call's data.
//
// The one blessed store is the dst-recycle idiom, where the stored call
// result IS the destination being recycled through the call:
//
//	e.cfgVec = e.space.ResolveInto(e.cfgVec, cfg)

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ScratchEscape flags scratch-annotated call results escaping the
// receiving frame.
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "results of //rafiki:scratch functions must not outlive the receiving frame",
	Run:  perFunc(checkScratchEscape),
}

func checkScratchEscape(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	t := annotatedTaint(pass, fd, "scratch", func(cf *FuncFacts) bool { return cf.Scratch }, true)
	enclosing := pass.Facts.Of(info.Defs[fd.Name])

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					rhs := n.Rhs[i]
					src := t.taintOf(rhs)
					if src == nil {
						continue
					}
					if dstRecycles(info, lhs, rhs) {
						continue
					}
					if kind := escapingStore(info, lhs); kind != "" {
						pass.Reportf(n.Pos(), "%s stored into %s; scratch is only valid until the owner's next call (copy it instead)", src.what, kind)
					}
				}
			} else if len(n.Rhs) == 1 {
				// Multi-result call: every LHS escaping target takes
				// the call's taint.
				if src := t.seeds[ast.Unparen(n.Rhs[0])]; src != nil {
					for _, lhs := range n.Lhs {
						if kind := escapingStore(info, lhs); kind != "" {
							pass.Reportf(n.Pos(), "%s stored into %s; scratch is only valid until the owner's next call (copy it instead)", src.what, kind)
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if src := t.taintOf(res); src != nil {
					if enclosing != nil && enclosing.Scratch {
						continue // documented scratch forwarder
					}
					pass.Reportf(res.Pos(), "%s returned past the owning frame; annotate this function //rafiki:scratch or return a copy", src.what)
				}
			}
		case *ast.SendStmt:
			if src := t.taintOf(n.Value); src != nil {
				pass.Reportf(n.Pos(), "%s sent on a channel; the receiver may observe it after the owner reuses it", src.what)
			}
		case *ast.FuncLit:
			reported := false
			ast.Inspect(n.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok || reported {
					return !reported
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				src, tainted := t.objs[obj]
				if !tainted || (obj.Pos() >= n.Pos() && obj.Pos() <= n.End()) {
					return true // untainted, or declared inside the closure
				}
				pass.Reportf(n.Pos(), "%s captured by a closure; the closure may run after the owner reuses it", src.what)
				reported = true
				return false
			})
			return false
		case *ast.CallExpr:
			checkRetainingCall(pass, info, t, n)
		}
		return true
	})
}

// checkRetainingCall flags tainted arguments passed to callees whose
// facts say they retain that parameter.
func checkRetainingCall(pass *Pass, info *types.Info, t *taintSet, call *ast.CallExpr) {
	callee := CalleeObject(info, call)
	cf := pass.Facts.Of(callee)
	if cf == nil {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	args := callArgs(info, call)
	recvIncluded := isMethodCallOnValue(info, call)
	for ai, arg := range args {
		if ai == 0 && recvIncluded {
			continue
		}
		src := t.taintOf(arg)
		if src == nil {
			continue
		}
		pi := paramIndexFor(sig, ai, recvIncluded)
		if pi >= 0 && pi < len(cf.RetainsParam) && cf.RetainsParam[pi] {
			pass.Reportf(arg.Pos(), "%s passed to %s, which retains its argument", src.what, shortFuncName(callee))
		}
	}
}

// escapingStore classifies an assignment target that outlives the
// frame: a struct field, a map/slice element reached through a field,
// or a package-level variable. Stores into plain locals (including
// elements of local slices) do not escape by themselves — the local's
// own escape is caught at its sink.
func escapingStore(info *types.Info, lhs ast.Expr) string {
	// Field step anywhere on the path → field store.
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				return "a struct field"
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				return "a package-level variable"
			}
			return ""
		default:
			return ""
		}
	}
}

// dstRecycles recognizes the blessed dst-recycle idiom: the tainted
// call's own argument list contains the assignment target, meaning the
// "escaping" store just re-binds the recycled destination buffer.
func dstRecycles(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	want := chainString(info, lhs)
	if want == "" {
		return false
	}
	for _, arg := range call.Args {
		if chainString(info, arg) == want {
			return true
		}
	}
	return false
}

// chainString renders a pure ident/selector chain as a comparable
// string rooted at the resolved base object ("e#123.cfgVec"), or ""
// for anything more complex.
func chainString(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
	case *ast.SelectorExpr:
		base := chainString(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}
