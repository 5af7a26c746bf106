package lint

import (
	"fmt"
	"path/filepath"
	"strings"
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

// TestRunTimedReportsAllAnalyzers pins the -timing contract: one entry
// per analyzer plus the shared facts pass, all positive under a
// strictly increasing injected clock.
func TestRunTimedReportsAllAnalyzers(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", "hotalloc_ok"), "fixturetiming/hotalloc_ok", "internal/hotok")
	if err != nil {
		t.Fatal(err)
	}
	var tick int64
	clock := func() int64 { tick += 7; return tick }
	_, timings := RunTimed([]*Package{pkg}, All(), clock)
	if want := len(All()) + 1; len(timings) != want {
		t.Fatalf("got %d timings, want %d (analyzers + facts)", len(timings), want)
	}
	if timings[0].Analyzer != "(facts)" {
		t.Errorf("first timing entry = %q, want (facts)", timings[0].Analyzer)
	}
	seen := map[string]bool{}
	for _, tm := range timings {
		if tm.Nanos <= 0 {
			t.Errorf("%s reported %d nanos, want > 0 under a ticking clock", tm.Analyzer, tm.Nanos)
		}
		if seen[tm.Analyzer] {
			t.Errorf("%s reported twice", tm.Analyzer)
		}
		seen[tm.Analyzer] = true
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

// TestRepoTreeClean proves the invariants over the real tree: the
// whole module must lint clean, which is exactly what `make lint`
// enforces in CI.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type check is slow; covered by make lint")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	failing := Unsuppressed(Run(pkgs, All()))
	for _, d := range failing {
		t.Errorf("%s", d)
	}
}
