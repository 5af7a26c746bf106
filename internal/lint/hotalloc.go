package lint

// hotalloc enforces the zero-alloc contract on //rafiki:hot functions —
// the paths pinned by TestOpAllocGuard / TestScanAllocGuard. Inside a
// hot body the analyzer bans every construct that heap-allocates on the
// steady path:
//
//   - map and slice literals, &composite literals, new(T)
//   - make without reused backing (make guarded by a cap()/len() check
//     is the blessed grow-once idiom and stays legal)
//   - interface boxing of non-pointer values at call sites
//   - string concatenation and string<->[]byte/[]rune conversions
//   - fmt calls and closures (FuncLit)
//   - calls to non-hot module functions whose facts say they allocate
//
// Struct and array VALUE literals (blockID{...}, scanSource{...}) do
// not heap-allocate and stay legal. Calls to other //rafiki:hot
// functions are trusted — their own bodies are checked. Deliberate
// exceptions (cold branches like flush kick-off) use reasoned
// //lint:allow hotalloc comments.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocating constructs inside //rafiki:hot functions.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//rafiki:hot functions must not allocate on the steady path",
	Run:  perFunc(checkHotAlloc),
}

func checkHotAlloc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	if ff := pass.Facts.Of(info.Defs[fd.Name]); ff == nil || !ff.Hot {
		return
	}
	// Collect make calls exempted by the grow-once idiom: a make whose
	// enclosing if condition consults cap() or len() only reallocates
	// when backing is too small, which is amortized-zero.
	exemptMakes := growthGuardedMakes(info, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch n.Type.(type) {
			case nil:
				// Nested literal; the outer literal was classified.
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates in a //rafiki:hot function")
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates in a //rafiki:hot function")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in a //rafiki:hot function")
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates in a //rafiki:hot function")
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "string concatenation allocates in a //rafiki:hot function")
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, info, n, exemptMakes)
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot body.
func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr, exemptMakes map[*ast.CallExpr]bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				if !exemptMakes[call] {
					pass.Reportf(call.Pos(), "make allocates in a //rafiki:hot function (guard it behind a cap()/len() check to reuse backing)")
				}
			case "new":
				pass.Reportf(call.Pos(), "new allocates in a //rafiki:hot function")
			}
			return
		}
		// Type conversion? string([]byte) and friends allocate.
		if tn, ok := info.Uses[fun].(*types.TypeName); ok {
			checkHotConversion(pass, info, call, tn.Type())
			return
		}
	case *ast.SelectorExpr:
		if path, name, ok := pkgFunc(info, fun); ok {
			if path == "fmt" {
				pass.Reportf(call.Pos(), "fmt.%s allocates in a //rafiki:hot function", name)
				return
			}
		}
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType:
		// Conversion via composite type syntax, e.g. []byte(s).
		if tv, ok := info.Types[call.Fun]; ok {
			checkHotConversion(pass, info, call, tv.Type)
		}
		return
	}

	// Interface boxing: a concrete non-pointer argument passed where
	// the callee expects an interface value escapes to the heap.
	checkHotBoxing(pass, info, call)

	// Calls to module functions: hot callees are trusted (checked in
	// their own right); non-hot callees with an Allocates fact are
	// flagged at the call site with the reason.
	callee := CalleeObject(info, call)
	cf := pass.Facts.Of(callee)
	if cf == nil || cf.Hot {
		return
	}
	if cf.Allocates {
		pass.Reportf(call.Pos(), "call to %s allocates (%s) in a //rafiki:hot function; make the callee hot or hoist the work", shortFuncName(callee), cf.AllocWhat)
	}
}

// checkHotConversion flags allocating type conversions: string <->
// []byte / []rune in either direction.
func checkHotConversion(pass *Pass, info *types.Info, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	fromTV, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(fromTV.Type) {
		pass.Reportf(call.Pos(), "string conversion copies and allocates in a //rafiki:hot function")
	} else if isByteOrRuneSlice(to) && isStringType(fromTV.Type) {
		pass.Reportf(call.Pos(), "byte/rune-slice conversion copies and allocates in a //rafiki:hot function")
	}
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Kind() == types.Byte || basic.Kind() == types.Uint8 || basic.Kind() == types.Rune || basic.Kind() == types.Int32
}

// checkHotBoxing flags arguments boxed into interface parameters. Only
// concrete non-pointer values box with an allocation; pointers, maps,
// slices-of-pointer headers, and values already of interface type pass
// without one (or were allocated elsewhere).
func checkHotBoxing(pass *Pass, info *types.Info, call *ast.CallExpr) {
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	for ai, arg := range call.Args {
		pi := ai
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // spread of an existing slice; no new boxes
			}
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok {
			continue
		}
		at := tv.Type
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue // no new box
		}
		if tv.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing of non-pointer %s allocates in a //rafiki:hot function", at.String())
	}
}

// callSignature resolves the signature of the called function when it
// is statically known (named function, method, or function-typed var).
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// growthGuardedMakes finds make calls inside an if statement whose
// condition consults cap() or len() — the grow-once reuse idiom:
//
//	if cap(dst) < n { dst = make([]T, n) }
//	if 2*(c.n+1) > len(c.index) { c.index = make([]int32, 2*len(c.index)) }
func growthGuardedMakes(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	exempt := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || ifStmt.Cond == nil {
			return true
		}
		if !usesCapOrLen(info, ifStmt.Cond) {
			return true
		}
		ast.Inspect(ifStmt.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && builtinNamed(info, id, "make") {
					exempt[call] = true
				}
			}
			return true
		})
		return true
	})
	return exempt
}

// usesCapOrLen reports whether expr contains a cap(...) or len(...)
// builtin call.
func usesCapOrLen(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := call.Fun.(*ast.Ident); ok && (builtinNamed(info, id, "cap") || builtinNamed(info, id, "len")) {
			found = true
		}
		return !found
	})
	return found
}
