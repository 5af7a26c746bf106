package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rafiki/internal/golden"
)

// fixtures maps each fixture package to the module-relative path it
// impersonates; path-scoped analyzers (nowall's cmd/ exemption,
// gorestrict's internal/par carve-out, obsnil's internal/obs scope)
// key off that path.
var fixtures = []struct {
	name string
	rel  string
}{
	{"nowall_bad", "internal/nowallfix"},
	{"nowall_ok", "cmd/nowallfix"},
	{"gorestrict_bad", "internal/gofix"},
	{"gorestrict_ok", "internal/par"},
	{"seedrand_bad", "internal/seedfix"},
	{"seedrand_ok", "internal/seedok"},
	{"maporder_bad", "internal/mapfix"},
	{"maporder_ok", "internal/mapok"},
	{"obsnil_bad", "internal/obs"},
	{"obsnil_ok", "internal/obs"},
	{"errdrop_bad", "internal/errfix"},
	{"errdrop_ok", "internal/errok"},
	{"netbypass_bad", "internal/cluster"},
	{"netbypass_ok", "internal/cluster"},
	{"scratchescape_bad", "internal/scratchfix"},
	{"scratchescape_ok", "internal/scratchok"},
	{"viewmut_bad", "internal/viewfix"},
	{"viewmut_ok", "internal/viewok"},
	{"hotalloc_bad", "internal/hotfix"},
	{"hotalloc_ok", "internal/hotok"},
	{"suppress", "internal/suppressfix"},
}

// renderAll formats diagnostics (suppressed ones annotated) with
// file paths reduced to base names so goldens are location-independent.
func renderAll(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "%s:%d:%d: %s: %s", filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
		if d.Suppressed {
			fmt.Fprintf(&sb, " [suppressed: %s]", d.Reason)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.name)
			pkg, err := loader.LoadDirAs(dir, "fixture/"+fx.name, fx.rel)
			if err != nil {
				t.Fatalf("load %s: %v", fx.name, err)
			}
			got := renderAll(Run([]*Package{pkg}, All()))
			golden.Check(t, filepath.Join("testdata", "golden", fx.name+".txt"), []byte(got))
		})
	}
}

// TestBadFixturesFail pins the failure contract: every *_bad fixture
// must produce at least one unsuppressed diagnostic from its own
// analyzer, and every *_ok fixture none at all.
func TestBadFixturesFail(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		bad := strings.HasSuffix(fx.name, "_bad")
		ok := strings.HasSuffix(fx.name, "_ok")
		if !bad && !ok {
			continue
		}
		pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", fx.name), "fixture2/"+fx.name, fx.rel)
		if err != nil {
			t.Fatalf("load %s: %v", fx.name, err)
		}
		failing := Unsuppressed(Run([]*Package{pkg}, All()))
		if ok && len(failing) > 0 {
			t.Errorf("%s: compliant fixture raised %d diagnostic(s): %v", fx.name, len(failing), failing[0])
		}
		if !bad {
			continue
		}
		wantAnalyzer := strings.TrimSuffix(fx.name, "_bad")
		found := false
		for _, d := range failing {
			if d.Analyzer == wantAnalyzer {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s diagnostic fired", fx.name, wantAnalyzer)
		}
	}
}

// TestSuppressionSemantics pins the three suppression behaviors:
// reasoned directives silence (trailing and standalone forms), and a
// reasonless directive both fires itself and fails to silence.
func TestSuppressionSemantics(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", "suppress"), "fixture3/suppress", "internal/suppressfix")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	var suppressed, nowallLive, malformed int
	for _, d := range diags {
		switch {
		case d.Suppressed:
			suppressed++
		case d.Analyzer == "nowall":
			nowallLive++
		case d.Analyzer == "suppression":
			malformed++
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (trailing + standalone)", suppressed)
	}
	if nowallLive != 1 {
		t.Errorf("live nowall findings = %d, want 1 (reasonless directive must not silence)", nowallLive)
	}
	if malformed != 1 {
		t.Errorf("malformed-suppression findings = %d, want 1", malformed)
	}
}

// TestLoaderParsesOncePerRun pins the shared single-pass invariant:
// one Loader serves every analyzer from one parse+type-check per
// package, even when packages import each other, and running the full
// suite re-parses nothing.
func TestLoaderParsesOncePerRun(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// nosql and config import shared dependencies (config, obs, stats);
	// loading both must still parse each import path exactly once.
	pkgs, err := loader.Load("internal/nosql", "internal/config", "internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	before := loader.ParseCounts()
	for path, n := range before {
		if n != 1 {
			t.Errorf("%s parsed %d times during Load, want 1", path, n)
		}
	}
	Run(pkgs, All())
	after := loader.ParseCounts()
	if len(after) != len(before) {
		t.Errorf("Run grew the parse set from %d to %d packages; analyzers must not load code", len(before), len(after))
	}
	for path, n := range after {
		if n != 1 {
			t.Errorf("%s parsed %d times after Run, want 1 (analyzer re-parsed the tree)", path, n)
		}
	}
}

// TestDiagnosticsSortedAcrossAnalyzers pins the mergeable-output
// contract: diagnostics from different analyzers and packages come out
// in one global (file, line, col, analyzer) order, identically on
// every run.
func TestDiagnosticsSortedAcrossAnalyzers(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, fx := range fixtures {
		if !strings.HasSuffix(fx.name, "_bad") {
			continue
		}
		pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", fx.name), "fixturesort/"+fx.name, fx.rel)
		if err != nil {
			t.Fatalf("load %s: %v", fx.name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, All())
	if len(diags) == 0 {
		t.Fatal("bad fixtures produced no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", a.File, a.Line, a.Col, a.Analyzer)
		kb := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", b.File, b.Line, b.Col, b.Analyzer)
		if ka > kb {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
	if again := renderAll(Run(pkgs, All())); again != renderAll(diags) {
		t.Error("two identical runs rendered different output")
	}
}

// repoLint is the whole module, loaded and linted by every analyzer.
type repoLint struct {
	moduleDir string
	pkgs      []*Package
	diags     []Diagnostic
}

// repoTree loads and lints the module once per test binary: the
// full-tree tests read the same findings, and the type check is most of
// their cost.
var repoTree = sync.OnceValues(func() (repoLint, error) {
	loader, err := NewLoader(".")
	if err != nil {
		return repoLint{}, err
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return repoLint{}, err
	}
	return repoLint{moduleDir: loader.ModuleDir, pkgs: pkgs, diags: Run(pkgs, All())}, nil
})

// TestRepoTreeClean proves the invariants over the real tree: the
// whole module must lint clean, which is exactly what `make lint`
// enforces in CI.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type check is slow; covered by make lint")
	}
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	failing := Unsuppressed(tree.diags)
	for _, d := range failing {
		t.Errorf("%s", d)
	}
}

// TestRepoSuppressionsGolden pins what the tree silences: one line per
// suppressed finding, giving its analyzer, module-relative file,
// message and the //lint:allow reason, without line and column so that
// unrelated edits do not move the pin. It also fails on a //lint:allow
// that silences nothing, which would otherwise stay in the tree as an
// excuse for a finding that no longer exists.
func TestRepoSuppressionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type check is slow; covered by make guard")
	}
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	silenced := make(map[string]bool) // "file:line:analyzer" of each suppressed finding
	for _, d := range tree.diags {
		if !d.Suppressed {
			continue
		}
		rel, err := filepath.Rel(tree.moduleDir, d.File)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %s: %s [%s]\n", d.Analyzer, filepath.ToSlash(rel), d.Message, d.Reason)
		silenced[fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Analyzer)] = true
	}
	golden.Check(t, filepath.Join("testdata", "golden", "repo_suppressions.txt"), []byte(sb.String()))

	// A directive covers its own line and the next one.
	for _, pkg := range tree.pkgs {
		idx, _ := buildSuppressions(pkg.Fset, pkg.Files)
		for file, byLine := range idx {
			for line, sups := range byLine {
				for _, s := range sups {
					if s.pos.Line != line {
						continue // the next-line entry of a directive seen at its own line
					}
					if !silenced[fmt.Sprintf("%s:%d:%s", file, line, s.analyzer)] &&
						!silenced[fmt.Sprintf("%s:%d:%s", file, line+1, s.analyzer)] {
						t.Errorf("%s: //lint:allow %s suppresses nothing", s.pos, s.analyzer)
					}
				}
			}
		}
	}
}

// TestLoaderHonoursBuildConstraints pins that the loader reads only the
// files go build would compile here: a package that declares one name
// per architecture (an assembly kernel's Go side and its portable
// stub) must type-check, not fail as a redeclaration.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":       "module m\n",
		"a.go":         "package m\n\nfunc use() int { return k }\n",
		"k_plan9.go":   "package m\n\nconst k = 1\n",
		"k_other.go":   "//go:build !plan9\n\npackage m\n\nconst k = 2\n",
		"skip.go":      "//go:build ignore\n\npackage m\n\nconst k = 3\n",
		"decl_test.go": "package m\n\nconst k = 4\n",
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "m")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	if want := "a.go k_other.go"; strings.Join(got, " ") != want {
		t.Errorf("loaded %v, want %s", got, want)
	}
}
