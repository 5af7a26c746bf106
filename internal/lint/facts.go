package lint

// The facts layer is the cross-analyzer half of the flow-aware suite:
// one pass over every loaded package reads the //rafiki:* annotation
// vocabulary off function declarations, derives per-function behavior
// facts (does it allocate? does it mutate or retain its reference
// parameters? does it return one of them?), and propagates those facts
// through a one-level call graph over the module's own packages. The
// scratchescape, viewmut, and hotalloc analyzers all consume the same
// Facts store, so a fact exported by annotating memtable.Drain in
// internal/nosql is visible while analyzing a caller in internal/bench.
//
// Facts are deliberately conservative in one direction only: a callee
// outside the loaded set (stdlib, interface method, function value) has
// no facts, and analyzers treat "no facts" as "assume nothing" — they
// stay silent rather than guess. Soundness inside the module comes from
// the Loader sharing a single FileSet and import cache, which makes
// types.Object identities stable across packages.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotation markers recognized in function doc comments.
const (
	markerHot     = "rafiki:hot"     // body must not allocate (hotalloc)
	markerView    = "rafiki:view"    // returns a shared read-only view (viewmut)
	markerScratch = "rafiki:scratch" // returns owner scratch, valid until next call (scratchescape)
)

// FuncFacts holds everything the flow-aware analyzers know about one
// function or method.
type FuncFacts struct {
	// Annotation-sourced facts.
	Hot     bool // //rafiki:hot — zero-alloc contract applies to the body
	View    bool // //rafiki:view — results are shared read-only views
	Scratch bool // //rafiki:scratch — results are owner scratch

	// Derived facts (computed from the body, then propagated through
	// the call graph).
	Allocates bool      // body reaches a heap-allocation site
	AllocWhat string    // human-readable description of the first site
	AllocPos  token.Pos // position of that site

	MutatesRecv bool // a method writes through its receiver

	// Per-parameter facts, indexed by flattened parameter position
	// (receiver excluded). Only reference-shaped parameters (slices,
	// maps, pointers) are tracked; others stay false.
	MutatesParam []bool // writes through the parameter's backing store
	RetainsParam []bool // stores the parameter somewhere outliving the call
	ReturnsParam []bool // returns the parameter (possibly resliced)
}

// unknownMarker is a //rafiki:* directive outside the known vocabulary.
type unknownMarker struct {
	text string
	pos  token.Pos
}

// factDecl pairs a function declaration with its resolved object and
// parameter objects, so derivation and fixpoint passes can walk decls
// in stable order.
type factDecl struct {
	pkg    *Package
	decl   *ast.FuncDecl
	obj    types.Object
	recv   types.Object   // receiver variable object, nil if none/blank
	params []types.Object // flattened named params; nil entries for _
	ff     *FuncFacts
}

// Facts is the shared store built once per Run and exposed to every
// analyzer via Pass.Facts.
type Facts struct {
	funcs   map[types.Object]*FuncFacts
	decls   []factDecl
	unknown map[*Package][]unknownMarker
}

// Of returns the facts for a function or method object, or nil when the
// object is unknown (not declared in a loaded package). Safe on nil
// receivers and nil objects.
func (f *Facts) Of(obj types.Object) *FuncFacts {
	if f == nil || obj == nil {
		return nil
	}
	return f.funcs[obj]
}

// BuildFacts scans every function declaration in pkgs, reads the
// //rafiki:* annotation vocabulary, derives allocation/mutation/
// retention facts from each body, and propagates parameter facts
// through direct calls between loaded functions until a fixpoint.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		funcs:   make(map[types.Object]*FuncFacts),
		unknown: make(map[*Package][]unknownMarker),
	}
	// Pass 1: collect declarations and annotation markers.
	for _, pkg := range pkgs {
		forEachFunc(pkg.Files, func(fd *ast.FuncDecl) {
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil {
				return
			}
			ff := &FuncFacts{}
			f.readMarkers(pkg, fd, ff)
			dcl := factDecl{pkg: pkg, decl: fd, obj: obj, ff: ff}
			if rid := receiverIdent(fd); rid != nil {
				dcl.recv = pkg.Info.Defs[rid]
			}
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						dcl.params = append(dcl.params, nil)
						continue
					}
					for _, name := range field.Names {
						if name.Name == "_" {
							dcl.params = append(dcl.params, nil)
						} else {
							dcl.params = append(dcl.params, pkg.Info.Defs[name])
						}
					}
				}
			}
			ff.MutatesParam = make([]bool, len(dcl.params))
			ff.RetainsParam = make([]bool, len(dcl.params))
			ff.ReturnsParam = make([]bool, len(dcl.params))
			f.funcs[obj] = ff
			f.decls = append(f.decls, dcl)
		})
	}
	// Pass 2: derive direct (non-propagated) facts from each body.
	for i := range f.decls {
		f.deriveDirect(&f.decls[i])
	}
	// Pass 3: propagate Allocates / MutatesParam / MutatesRecv /
	// RetainsParam through direct calls until nothing changes. All
	// facts are monotone booleans, so iteration terminates; decls are
	// walked in stable (package, file, decl) order, so the result is
	// deterministic regardless of map layout.
	for changed := true; changed; {
		changed = false
		for i := range f.decls {
			if f.propagate(&f.decls[i]) {
				changed = true
			}
		}
	}
	return f
}

// readMarkers parses //rafiki:* directives from fd's doc comment.
// Unknown markers are recorded for the "annotation" pseudo-analyzer.
func (f *Facts) readMarkers(pkg *Package, fd *ast.FuncDecl, ff *FuncFacts) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "rafiki:") {
			continue
		}
		marker := text
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			marker = text[:i]
		}
		switch marker {
		case markerHot:
			ff.Hot = true
		case markerView:
			ff.View = true
		case markerScratch:
			ff.Scratch = true
		default:
			f.unknown[pkg] = append(f.unknown[pkg], unknownMarker{text: marker, pos: c.Pos()})
		}
	}
}

// referenceShaped reports whether writes through a value of type t can
// be observed by the caller (slice, map, or pointer).
func referenceShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}

// pointerShaped reports whether writes through a value of type t hit
// shared memory even without an index step, so that a selector-only
// write (p.Field = x) still lands in shared memory.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map:
		return true
	}
	return false
}

// watched maps d's receiver (to -1) and its reference-shaped named
// parameters (to their flattened index): the objects whose mutation,
// retention or return the caller can observe.
func (d *factDecl) watched() map[types.Object]int {
	watch := make(map[types.Object]int, len(d.params)+1)
	if d.recv != nil && referenceShaped(d.recv.Type()) {
		watch[d.recv] = -1
	}
	for i, p := range d.params {
		if p != nil && referenceShaped(p.Type()) {
			watch[p] = i
		}
	}
	return watch
}

// deriveDirect computes the facts visible in d's own body: allocation
// sites, and mutation/retention/return of the receiver and reference
// parameters.
func (f *Facts) deriveDirect(d *factDecl) {
	info := d.pkg.Info
	watch := d.watched()

	record := func(idx int, out []bool) {
		if idx == -1 {
			d.ff.MutatesRecv = true
		} else if out != nil {
			out[idx] = true
		}
	}

	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			// Only map and slice literals heap-allocate; struct/array
			// VALUE literals live on the stack (&T{} is caught at the
			// UnaryExpr below).
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					f.noteAlloc(d, n.Pos(), "map literal")
				case *types.Slice:
					f.noteAlloc(d, n.Pos(), "slice literal")
				}
			}
		case *ast.FuncLit:
			// Closures allocate at the FuncLit site; what the closure
			// body does is its own frame's business for fact purposes
			// (hotalloc still bans the literal).
			f.noteAlloc(d, n.Pos(), "closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					f.noteAlloc(d, n.Pos(), "&composite literal")
				}
			}
		case *ast.CallExpr:
			f.deriveCall(d, n, watch, info)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				base, steps := lvalueRoot(info, lhs)
				if base == nil {
					continue
				}
				idx, ok := watch[base]
				if !ok {
					continue
				}
				if steps&stepShared != 0 || pointerShaped(base.Type()) {
					// Writing through an index/deref (or any selector
					// chain on a pointer base) mutates shared backing;
					// a plain `p = x` rebind does not.
					if !isPlainRebind(lhs) {
						record(idx, d.ff.MutatesParam)
					}
				}
			}
		case *ast.IncDecStmt:
			base, steps := lvalueRoot(info, n.X)
			if base != nil {
				if idx, ok := watch[base]; ok && (steps&stepShared != 0 || pointerShaped(base.Type())) {
					record(idx, d.ff.MutatesParam)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id := aliasRoot(info, res); id != nil {
					if idx, ok := watch[id]; ok && idx >= 0 {
						d.ff.ReturnsParam[idx] = true
					}
				}
			}
		}
		return true
	})

	// Retention: a watched param stored into a field, global, map
	// entry, or slice element whose base is NOT a local outlives the
	// call. Detected as: param appears as RHS of an assignment whose
	// LHS base is the receiver, another param, or a package-level var —
	// or as an element appended into such a target.
	f.deriveRetention(d, watch, info)
}

// deriveCall handles allocation sites and fact propagation seeds at one
// call expression inside d's body.
func (f *Facts) deriveCall(d *factDecl, call *ast.CallExpr, watch map[types.Object]int, info *types.Info) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				f.noteAlloc(d, call.Pos(), "make")
			case "new":
				f.noteAlloc(d, call.Pos(), "new")
			case "append":
				f.noteAlloc(d, call.Pos(), "append (may grow)")
			}
		}
	case *ast.SelectorExpr:
		if path, name, ok := pkgFunc(info, fun); ok {
			if path == "fmt" {
				f.noteAlloc(d, call.Pos(), "fmt."+name)
			}
		}
	}
	// String concatenation and conversions are handled in hotalloc
	// directly; for facts purposes only call/composite/make sites
	// matter (they dominate real allocation in this tree).
}

// deriveRetention marks watched params that are stored into state
// outliving the call frame.
func (f *Facts) deriveRetention(d *factDecl, watch map[types.Object]int, info *types.Info) {
	// Locals declared in the body: stores into these do not retain.
	locals := make(map[types.Object]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					locals[obj] = true
				}
			}
		}
		return true
	})

	retains := func(lhs ast.Expr) bool {
		base, steps := lvalueRoot(info, lhs)
		if base == nil {
			// Could not resolve — selector on a call result etc.
			// Conservatively treat unresolved non-ident targets with a
			// field/index step as retaining.
			_, isIdent := lhs.(*ast.Ident)
			return !isIdent
		}
		if _, isWatched := watch[base]; isWatched {
			// Stored through a field, index or deref step into the
			// receiver's or another param's backing: outlives the frame.
			return steps != 0
		}
		if locals[base] {
			return false
		}
		// Package-level variable or captured outer variable.
		return true
	}

	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			var sources []ast.Expr
			if call, isCall := rhs.(*ast.CallExpr); isCall {
				if id, isIdent := call.Fun.(*ast.Ident); isIdent && builtinNamed(info, id, "append") {
					// append(target, param...) — the appended elements
					// land in target's backing.
					sources = call.Args[1:]
				}
			}
			if sources == nil {
				sources = []ast.Expr{rhs}
			}
			for _, src := range sources {
				id := aliasRoot(info, src)
				if id == nil {
					continue
				}
				idx, isWatched := watch[id]
				if !isWatched || idx < 0 {
					continue
				}
				if i < len(asg.Lhs) && retains(asg.Lhs[min(i, len(asg.Lhs)-1)]) {
					d.ff.RetainsParam[idx] = true
				}
			}
		}
		return true
	})
}

// propagate folds callee facts into d's facts through direct calls.
// Returns true if anything changed.
func (f *Facts) propagate(d *factDecl) bool {
	info := d.pkg.Info
	changed := false
	watch := d.watched()
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeObject(info, call)
		cf := f.Of(callee)
		if cf == nil {
			return true
		}
		if cf.Allocates && !d.ff.Allocates {
			d.ff.Allocates = true
			d.ff.AllocWhat = "call to " + shortFuncName(callee) + " (" + cf.AllocWhat + ")"
			d.ff.AllocPos = call.Pos()
			changed = true
		}
		// Receiver mutation/retention flows to the argument bound to
		// the receiver; parameter facts flow to each argument.
		args := callArgs(info, call)
		recvIncluded := isMethodCallOnValue(info, call)
		sig, _ := callee.Type().(*types.Signature)
		for ai, arg := range args {
			id := aliasRoot(info, arg)
			if id == nil {
				continue
			}
			idx, isWatched := watch[id]
			if !isWatched {
				continue
			}
			pi := paramIndexFor(sig, ai, recvIncluded)
			var mutates, retains bool
			if ai == 0 && recvIncluded {
				mutates, retains = cf.MutatesRecv, false
			} else if pi >= 0 && pi < len(cf.MutatesParam) {
				mutates = cf.MutatesParam[pi]
				retains = cf.RetainsParam[pi]
			}
			if mutates {
				if idx == -1 {
					if !d.ff.MutatesRecv {
						d.ff.MutatesRecv = true
						changed = true
					}
				} else if !d.ff.MutatesParam[idx] {
					d.ff.MutatesParam[idx] = true
					changed = true
				}
			}
			if retains && idx >= 0 && !d.ff.RetainsParam[idx] {
				d.ff.RetainsParam[idx] = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// noteAlloc records the first allocation site seen in d's body.
func (f *Facts) noteAlloc(d *factDecl, pos token.Pos, what string) {
	if d.ff.Allocates {
		return
	}
	d.ff.Allocates = true
	d.ff.AllocWhat = what
	d.ff.AllocPos = pos
}

// --- call/argument resolution helpers shared with the analyzers ---

// builtinNamed reports whether id resolves to the named builtin
// (shadowed identifiers do not).
func builtinNamed(info *types.Info, id *ast.Ident, name string) bool {
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// CalleeObject resolves the function or method object a call targets,
// or nil for builtins, function values, interface methods with no
// static target, and anything else without a stable object.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if _, isFunc := obj.(*types.Func); isFunc {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				return sel.Obj()
			}
			return nil
		}
		// Package-qualified call: pkg.F
		obj := info.Uses[fun.Sel]
		if _, isFunc := obj.(*types.Func); isFunc {
			return obj
		}
	}
	return nil
}

// callArgs returns the call's effective arguments: for method calls on
// a value (x.M(a)), x is prepended as argument 0 so receiver facts can
// flow to it.
func callArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if isMethodCallOnValue(info, call) {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		args := make([]ast.Expr, 0, len(call.Args)+1)
		args = append(args, sel.X)
		return append(args, call.Args...)
	}
	return call.Args
}

// isMethodCallOnValue reports whether call is x.M(...) with x a value
// (not a package name or type).
func isMethodCallOnValue(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

// paramIndexFor maps the effective argument index ai to the callee's
// flattened parameter index, handling variadics. recvIncluded says the
// effective argument list has the receiver at slot 0 (method call on a
// value); that slot maps to -1.
func paramIndexFor(sig *types.Signature, ai int, recvIncluded bool) int {
	if sig == nil {
		return -1
	}
	pi := ai
	if recvIncluded {
		if ai == 0 {
			return -1
		}
		pi = ai - 1
	}
	if sig.Variadic() && pi >= sig.Params().Len() {
		pi = sig.Params().Len() - 1
	}
	if pi >= sig.Params().Len() {
		return -1
	}
	return pi
}

// shortFuncName renders obj as Recv.Name or pkg.Name for messages.
func shortFuncName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// The steps a walk from an expression down to the variable at its root
// can cross.
const (
	stepField  = 1 << iota // x.f
	stepShared             // x[i] or *x: into x's shared backing
	stepAlias              // x[a:b] or &x: an alias of x itself
)

// rootVar walks expr through parens, selectors, index and deref steps,
// reslices and unary & down to the identifier at its root, and returns
// that identifier's object with the set of steps crossed; the object is
// nil when the root is not an identifier.
func rootVar(info *types.Info, expr ast.Expr) (types.Object, int) {
	steps := 0
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj, steps
			}
			return info.Defs[e], steps
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			steps |= stepField
			expr = e.X
		case *ast.IndexExpr:
			steps |= stepShared
			expr = e.X
		case *ast.StarExpr:
			steps |= stepShared
			expr = e.X
		case *ast.SliceExpr:
			steps |= stepAlias
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return nil, steps
			}
			steps |= stepAlias
			expr = e.X
		default:
			return nil, steps
		}
	}
}

// lvalueRoot is the variable an assignment target x, x.f, x[i] or *x
// writes into, with the steps crossed; nil for anything that reslices
// or takes an address on the way.
func lvalueRoot(info *types.Info, expr ast.Expr) (types.Object, int) {
	obj, steps := rootVar(info, expr)
	if steps&stepAlias != 0 {
		return nil, steps
	}
	return obj, steps
}

// aliasRoot is the variable whose backing store expr aliases through
// parens, reslices and unary & alone (x, x[a:b], &x), or nil.
func aliasRoot(info *types.Info, expr ast.Expr) types.Object {
	obj, steps := rootVar(info, expr)
	if steps&^stepAlias != 0 {
		return nil
	}
	return obj
}

// isPlainRebind reports whether lhs is a bare identifier (p = ...),
// which rebinds the local rather than writing through it.
func isPlainRebind(lhs ast.Expr) bool {
	_, ok := lhs.(*ast.Ident)
	return ok
}
