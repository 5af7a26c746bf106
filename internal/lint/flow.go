package lint

// flow.go is the intra-procedural dataflow half of the flow-aware
// suite: a small taint engine over one function body. Analyzers seed
// taint at expressions of interest (a call to a //rafiki:scratch
// function, a //rafiki:view result) and the engine propagates it
// through local def/use chains — assignments, reslices, aliasing via
// &, field reads, append, and calls to functions whose facts say they
// return a tainted parameter — to a fixpoint. Sinks stay the
// analyzer's business: the engine only answers "does this expression
// alias a seeded value?".

import (
	"go/ast"
	"go/token"
	"go/types"
)

// taintSource describes why a value is tainted, for diagnostics.
type taintSource struct {
	// what names the origin, e.g. "scratch from memtable.Drain" or
	// "view from Engine.Params".
	what string
}

// taintSet tracks tainted local objects within one function body.
type taintSet struct {
	info *types.Info
	// objs maps a tainted local variable to its source.
	objs map[types.Object]*taintSource
	// seeds maps a seeding expression (typically a CallExpr) to its
	// source, so expression-level taint works before any assignment.
	seeds map[ast.Expr]*taintSource
	// facts lets taint flow through module calls that return one of
	// their parameters (ReturnsParam), e.g. ResolveInto returning its
	// dst argument.
	facts *Facts
	// propagateComposite controls whether building a composite literal
	// from a tainted value taints the literal. scratchescape wants
	// this (wrapping scratch in a struct still escapes it); viewmut
	// does not (a struct holding a view pointer is not itself a view
	// being written through).
	propagateComposite bool
}

// annotatedTaint returns the taint set of fd's body for one annotation:
// every call to a function whose facts satisfy marked is a source named
// "<label> from <callee>", a multi-result such call (keys, tombs, exp
// := Drain()) taints each reference-shaped variable it binds, and the
// taint is propagated to a fixpoint.
func annotatedTaint(pass *Pass, fd *ast.FuncDecl, label string, marked func(*FuncFacts) bool, propagateComposite bool) *taintSet {
	info := pass.Pkg.Info
	t := &taintSet{
		info:               info,
		facts:              pass.Facts,
		objs:               make(map[types.Object]*taintSource),
		seeds:              make(map[ast.Expr]*taintSource),
		propagateComposite: propagateComposite,
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callee := CalleeObject(info, call)
			if cf := pass.Facts.Of(callee); cf != nil && marked(cf) {
				t.seeds[call] = &taintSource{what: label + " from " + shortFuncName(callee)}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) < 2 {
			return true
		}
		src := t.seeds[ast.Unparen(asg.Rhs[0])]
		if src == nil {
			return true
		}
		for _, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if _, had := t.objs[obj]; obj != nil && !had && referenceShaped(obj.Type()) {
				t.objs[obj] = src
			}
		}
		return true
	})
	t.propagate(fd.Body)
	return t
}

// taintOf returns the source tainting expr, or nil.
func (t *taintSet) taintOf(expr ast.Expr) *taintSource {
	if expr == nil {
		return nil
	}
	if src, ok := t.seeds[expr]; ok {
		return src
	}
	switch e := expr.(type) {
	case *ast.Ident:
		obj := t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		if src, ok := t.objs[obj]; ok {
			return src
		}
	case *ast.ParenExpr:
		return t.taintOf(e.X)
	case *ast.SliceExpr:
		// scratch[1:] aliases scratch.
		return t.taintOf(e.X)
	case *ast.IndexExpr:
		// scratch[i] for a slice of pointers/slices would alias; for
		// scalar elements taint does not flow. Conservatively only
		// propagate when the element type is reference-shaped.
		if tv, ok := t.info.Types[expr]; ok && referenceShaped(tv.Type) {
			return t.taintOf(e.X)
		}
	case *ast.StarExpr:
		return t.taintOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.taintOf(e.X)
		}
	case *ast.SelectorExpr:
		// Reading a field off a tainted struct value yields tainted
		// storage only for reference-shaped fields.
		if sel, ok := t.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if tv, ok := t.info.Types[expr]; ok && referenceShaped(tv.Type) {
				return t.taintOf(e.X)
			}
		}
	case *ast.TypeAssertExpr:
		return t.taintOf(e.X)
	case *ast.CompositeLit:
		if !t.propagateComposite {
			return nil
		}
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if src := t.taintOf(v); src != nil {
				return src
			}
		}
	case *ast.CallExpr:
		return t.callTaint(e)
	}
	return nil
}

// callTaint decides whether a call expression yields a tainted result:
// builtin append whose first argument is tainted, or a call to a
// function whose facts say it returns one of its (tainted) parameters.
func (t *taintSet) callTaint(call *ast.CallExpr) *taintSource {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "append" && len(call.Args) > 0 {
				if src := t.taintOf(call.Args[0]); src != nil {
					return src
				}
				// Reference-shaped elements (slice headers, pointers)
				// appended in carry their taint into the result's
				// backing; scalar elements are copied and do not.
				for _, a := range call.Args[1:] {
					if src := t.taintOf(a); src != nil {
						et := t.elemTypeForAppend(call, a)
						if et != nil && referenceShaped(et) {
							return src
						}
					}
				}
			}
			return nil
		}
		if t.info.Uses[id] == nil && t.info.Defs[id] == nil {
			return nil
		}
	}
	// A call to a module function whose facts say "returns parameter
	// i" yields taint when argument i is tainted.
	callee := CalleeObject(t.info, call)
	cf := t.facts.Of(callee)
	if cf == nil {
		return nil
	}
	sig, _ := callee.Type().(*types.Signature)
	args := callArgs(t.info, call)
	recvIncluded := isMethodCallOnValue(t.info, call)
	for ai, arg := range args {
		pi := paramIndexFor(sig, ai, recvIncluded)
		if pi < 0 || pi >= len(cf.ReturnsParam) || !cf.ReturnsParam[pi] {
			continue
		}
		if src := t.taintOf(arg); src != nil {
			return src
		}
	}
	return nil
}

// elemTypeForAppend returns the type of the values that an append
// argument contributes to the result: the argument's own type for a
// plain element, or its element type for the spread (...) form.
func (t *taintSet) elemTypeForAppend(call *ast.CallExpr, arg ast.Expr) types.Type {
	tv, ok := t.info.Types[arg]
	if !ok {
		return nil
	}
	if call.Ellipsis.IsValid() && len(call.Args) > 0 && arg == call.Args[len(call.Args)-1] {
		if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	return tv.Type
}

// propagate runs the assignment fixpoint over body: any assignment
// whose RHS is tainted taints the LHS variable. Multi-result calls are
// seeded by annotatedTaint. Iterates until stable so chains
// like a := seed; b := a[1:]; c := b resolve regardless of statement
// order in loops.
func (t *taintSet) propagate(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if t.assignTaint(n.Lhs[i], n.Rhs[i]) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						if t.assignTaintIdent(n.Names[i], n.Values[i]) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// for _, v := range tainted: v aliases elements; taint
				// flows only for reference-shaped element values.
				if n.Value != nil && n.Tok == token.DEFINE {
					if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
						if tv, ok := t.info.Types[n.Value]; ok && referenceShaped(tv.Type) {
							if src := t.taintOf(n.X); src != nil {
								obj := t.info.Defs[id]
								if _, had := t.objs[obj]; !had && obj != nil {
									t.objs[obj] = src
									changed = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}

// assignTaint taints lhs's base variable when rhs is tainted. Returns
// true when new taint was added.
func (t *taintSet) assignTaint(lhs, rhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	return t.assignTaintIdent(id, rhs)
}

func (t *taintSet) assignTaintIdent(id *ast.Ident, rhs ast.Expr) bool {
	src := t.taintOf(rhs)
	if src == nil {
		return false
	}
	obj := t.info.Defs[id]
	if obj == nil {
		obj = t.info.Uses[id]
	}
	if obj == nil {
		return false
	}
	if _, had := t.objs[obj]; had {
		return false
	}
	t.objs[obj] = src
	return true
}
