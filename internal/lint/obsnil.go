package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsNil guards the obs package's core contract: instrumented code
// holds possibly-nil instrument pointers and calls them
// unconditionally, so every exported pointer-receiver method must hit
// its `if recv == nil { return }` fast path before touching any
// receiver field. A field access ahead of (or without) the nil check
// turns every disabled-observability call site into a panic.
var ObsNil = &Analyzer{
	Name: "obsnil",
	Doc:  "exported obs instrument methods must nil-check the receiver before any field access",
	Run:  perFunc(checkNilGuard),
}

// pointerReceiver reports whether fd's receiver is a pointer type.
func pointerReceiver(fd *ast.FuncDecl) bool {
	t := fd.Recv.List[0].Type
	if p, ok := t.(*ast.ParenExpr); ok {
		t = p.X
	}
	_, ok := t.(*ast.StarExpr)
	return ok
}

// checkNilGuard reports, in an exported pointer-receiver method of
// internal/obs, receiver field accesses not preceded by a top-level
// `recv == nil` check. Value receivers cannot be nil.
func checkNilGuard(pass *Pass, fd *ast.FuncDecl) {
	if pass.Pkg.RelPath != "internal/obs" || fd.Recv == nil || !fd.Name.IsExported() || !pointerReceiver(fd) {
		return
	}
	recv := receiverIdent(fd)
	if recv == nil {
		return // receiver unnamed, so no field access is possible
	}
	info := pass.Pkg.Info
	recvObj := info.ObjectOf(recv)

	guardPos := token.NoPos
	for _, st := range fd.Body.List {
		ifSt, ok := st.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condChecksNil(info, ifSt.Cond, recvObj) && returnsEarly(ifSt.Body) {
			guardPos = ifSt.Pos()
			break
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || info.ObjectOf(id) != recvObj {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true // method call on receiver, itself nil-safe
		}
		if guardPos == token.NoPos {
			pass.Reportf(sel.Pos(), "method %s accesses field %s.%s but has no `if %s == nil` fast path; nil instruments must be no-ops", fd.Name.Name, id.Name, sel.Sel.Name, id.Name)
			return true
		}
		if sel.Pos() < guardPos {
			pass.Reportf(sel.Pos(), "method %s accesses field %s.%s before the nil-receiver check; move the `if %s == nil` guard first", fd.Name.Name, id.Name, sel.Sel.Name, id.Name)
		}
		return true
	})
}

// condChecksNil reports whether cond contains `obj == nil` (possibly
// inside a || chain).
func condChecksNil(info *types.Info, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL || found {
			return !found
		}
		x, y := be.X, be.Y
		if isNilIdent(info, y) && usesObject(info, x, obj) {
			found = true
		}
		if isNilIdent(info, x) && usesObject(info, y, obj) {
			found = true
		}
		return !found
	})
	return found
}

// isNilIdent reports whether expr is the predeclared nil.
func isNilIdent(info *types.Info, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// returnsEarly reports whether a guard body exits the function.
func returnsEarly(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	_, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	return ok
}
