package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("rafiki/internal/obs").
	Path string
	// RelPath is Path relative to the module root ("internal/obs",
	// "" for the module root package). Analyzers scope their rules by
	// RelPath so fixture packages can impersonate any location.
	RelPath string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module using only
// the standard library: go/parser for syntax and go/types with the
// source importer for dependencies, so no compiled export data or
// external driver is needed. Test files (_test.go) are skipped.
type Loader struct {
	Fset *token.FileSet
	// ModulePath and ModuleDir identify the module being analyzed,
	// read from go.mod.
	ModulePath string
	ModuleDir  string

	std   types.ImporterFrom
	cache map[string]*Package
	// parsed counts how many times each import path was actually
	// parsed+type-checked (as opposed to served from cache). Every
	// entry should be exactly 1 for the life of the Loader; the
	// regression test for the shared-pass invariant asserts it.
	parsed map[string]int
}

// NewLoader locates go.mod at or above dir and returns a Loader rooted
// at that module.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modpath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modpath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModulePath: modpath,
		ModuleDir:  root,
		cache:      make(map[string]*Package),
		parsed:     make(map[string]int),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Import implements types.Importer: module-internal paths load from
// source through the loader itself (sharing its cache and FileSet);
// everything else — the standard library — goes through the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.loadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// moduleRel reports whether path is inside the module and returns the
// module-relative remainder.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.ModulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// Load expands patterns (a directory, or a directory/... subtree,
// relative to the module root) into type-checked packages in
// deterministic path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." {
			pat = "./..."
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(sub, ".")))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if hasGoSource(p) {
					dirs[p] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(pat))
		if !hasGoSource(dir) {
			return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
		}
		dirs[dir] = true
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads a single directory under the given import path. The
// module-relative RelPath is derived from importPath when it lies
// inside the module, and is importPath verbatim otherwise.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath)
}

// LoadDirAs loads dir under importPath but forces the given
// module-relative RelPath. Fixture packages use it to impersonate repo
// locations (e.g. a testdata package analyzed as "internal/obs"
// exercises the obs-only rules) without colliding in the import cache.
func (l *Loader) LoadDirAs(dir, importPath, relPath string) (*Package, error) {
	pkg, err := l.loadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	pkg.RelPath = relPath
	return pkg, nil
}

// ParseCounts returns a copy of the per-import-path parse counters. A
// value above 1 means a package was re-parsed — the shared single-pass
// invariant is broken.
func (l *Loader) ParseCounts() map[string]int {
	out := make(map[string]int, len(l.parsed))
	for k, v := range l.parsed {
		out[k] = v
	}
	return out
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	l.parsed[importPath]++
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", importPath, typeErrs[0])
	}
	rel := importPath
	if r, ok := l.moduleRel(importPath); ok {
		rel = r
	}
	pkg := &Package{
		Path:    importPath,
		RelPath: rel,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// hasGoSource reports whether dir directly contains at least one
// non-test Go file.
func hasGoSource(dir string) bool {
	names, err := goSourceFiles(dir)
	return err == nil && len(names) > 0
}

// goSourceFiles lists dir's non-test Go files that build on this host
// (GOOS/GOARCH file suffixes and //go:build lines, as go build reads
// them) in sorted order.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
