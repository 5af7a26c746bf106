// Package lint is a stdlib-only static-analysis framework (go/ast +
// go/parser + go/types with the source importer) plus the repo's
// analyzers. Each analyzer encodes one invariant the runtime layers
// rely on — virtual time, pooled concurrency, seeded randomness,
// order-independent map iteration, nil-safe obs instruments, no
// silently dropped errors — so the reproducibility guarantees the
// tests sample are instead proven over the whole tree on every build.
//
// On top of the per-file syntactic passes sits a flow-aware layer: a
// facts store (facts.go) reads the //rafiki:hot, //rafiki:view, and
// //rafiki:scratch annotation vocabulary off function declarations,
// derives allocation/mutation/retention facts per function, and
// propagates them through a one-level call graph over the module; a
// taint engine (flow.go) tracks aliases of interesting values through
// local def/use chains. The scratchescape, viewmut, and hotalloc
// analyzers consume both to enforce the hot-path memory model from
// DESIGN.md §14 across package boundaries.
//
// Diagnostics are suppressible per line with a mandatory reason:
//
//	//lint:allow <analyzer> <reason...>
//
// either trailing the offending line or alone on the line above it. A
// suppression without a reason is itself a diagnostic. Test files
// (_test.go) are not analyzed: the invariants protect production
// determinism, and tests legitimately use literal seeds, goroutines,
// and wall-clock-free busywork that would drown the signal.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //lint:allow suppressions.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Facts is the cross-analyzer fact store built once per Run over
	// every loaded package (annotations + derived behavior facts).
	Facts *Facts

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	File     string
	Line     int
	Col      int
	Message  string
	// Suppressed marks a finding covered by a well-formed
	// //lint:allow comment; Reason carries the comment's reason.
	Suppressed bool
	Reason     string
}

// String renders the diagnostic in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// suppression is one parsed //lint:allow comment.
type suppression struct {
	analyzer  string
	reason    string
	malformed bool
	pos       token.Position
}

// suppressionIndex maps file → line → suppressions that cover
// diagnostics on that line.
type suppressionIndex map[string]map[int][]suppression

// buildSuppressions scans a package's comments for //lint:allow
// directives. A directive covers its own line and, when it is the only
// thing on its line, the first following line as well. Malformed
// directives (missing analyzer or reason) are returned separately, in
// file order, so the caller can report them.
func buildSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []suppression) {
	idx := make(suppressionIndex)
	var malformed []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
				fields := strings.Fields(rest)
				s := suppression{pos: fset.Position(c.Pos())}
				if len(fields) < 2 {
					s.malformed = true
					malformed = append(malformed, s)
					continue
				}
				s.analyzer = fields[0]
				s.reason = strings.Join(fields[1:], " ")
				pos := s.pos
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]suppression)
					idx[pos.Filename] = byLine
				}
				// Cover the comment's own line (trailing form) and the
				// next line (standalone form). A trailing comment
				// "covering" the next line is harmless: suppressions
				// are analyzer-scoped and reviewed.
				byLine[pos.Line] = append(byLine[pos.Line], s)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], s)
			}
		}
	}
	return idx, malformed
}

// Run applies every analyzer to every package and returns all
// diagnostics in deterministic (file, line, col, analyzer) order.
// Suppressed findings are included with Suppressed=true so callers can
// audit them; malformed //lint:allow comments surface as diagnostics
// from the pseudo-analyzer "suppression", and //rafiki:* markers
// outside the known vocabulary as diagnostics from "annotation".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// One facts pass over every package, shared by all analyzers.
	facts := BuildFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx, malformed := buildSuppressions(pkg.Fset, pkg.Files)
		suppress := func(d *Diagnostic) {
			for _, s := range idx[d.File][d.Line] {
				if s.analyzer == d.Analyzer {
					d.Suppressed = true
					d.Reason = s.reason
					break
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Facts: facts}
			pass.report = func(d Diagnostic) {
				d.File = d.Pos.Filename
				d.Line = d.Pos.Line
				d.Col = d.Pos.Column
				suppress(&d)
				diags = append(diags, d)
			}
			a.Run(pass)
		}
		// Malformed directives are findings in their own right: a
		// suppression without a reason hides an invariant violation
		// with no audit trail.
		for _, s := range malformed {
			diags = append(diags, Diagnostic{
				Analyzer: "suppression",
				Pos:      s.pos,
				File:     s.pos.Filename,
				Line:     s.pos.Line,
				Col:      s.pos.Column,
				Message:  "//lint:allow needs an analyzer name and a reason",
			})
		}
		// Unknown //rafiki:* markers are typos waiting to silently
		// disable an invariant; surface them like malformed allows.
		for _, u := range facts.unknown[pkg] {
			pos := pkg.Fset.Position(u.pos)
			d := Diagnostic{
				Analyzer: "annotation",
				Pos:      pos,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  fmt.Sprintf("unknown //%s marker (known: //%s, //%s, //%s)", u.text, markerHot, markerView, markerScratch),
			}
			suppress(&d)
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Unsuppressed filters to the findings that should fail a build.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// All returns the full analyzer suite in stable order. The last three
// are the flow-aware analyzers built on the shared facts store.
func All() []*Analyzer {
	return []*Analyzer{
		NowAll,
		GoRestrict,
		SeedRand,
		MapOrder,
		ObsNil,
		ErrDrop,
		NetBypass,
		ScratchEscape,
		ViewMut,
		HotAlloc,
	}
}

// --- shared helpers used by several analyzers ---

// forEachFunc calls fn on every function declaration with a body in
// files, in file and declaration order.
func forEachFunc(files []*ast.File, fn func(fd *ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// perFunc makes an Analyzer.Run out of a check of one function
// declaration: the check sees every function with a body in the pass's
// package.
func perFunc(check func(pass *Pass, fd *ast.FuncDecl)) func(*Pass) {
	return func(pass *Pass) {
		forEachFunc(pass.Pkg.Files, func(fd *ast.FuncDecl) { check(pass, fd) })
	}
}

// pkgFunc resolves a selector like time.Now to (package path, func
// name) when X names an imported package; ok reports whether it did.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// receiverIdent returns the declared receiver variable of a method, or
// nil for value-less / anonymous receivers.
func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// usesObject reports whether expr contains an identifier resolving to
// obj.
func usesObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
