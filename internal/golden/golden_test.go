package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder stands in for a test, keeping what Check reports.
type recorder struct {
	testing.TB
	report string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) { r.report = fmt.Sprintf(format, args...) }

// TestCheckReportsFirstDifference: an equal file passes, and a changed or
// missing line is reported with its line number.
func TestCheckReportsFirstDifference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pin.golden")
	if err := os.WriteFile(path, []byte("a 1\nb 2\nc 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ got, want string }{
		{"a 1\nb 2\nc 3\n", ""},
		{"a 1\nb 9\nc 3\n", ":2: got\n\tb 9\nwant\n\tb 2"},
		{"a 1\nb 2\n", ":3: got\n\t\nwant\n\tc 3"},
		{"a 1\nb 2\nc 3\n\n", "got 5 lines, want 4"},
	} {
		r := &recorder{TB: t}
		Check(r, path, []byte(tc.got))
		if (tc.want == "") != (r.report == "") || !strings.Contains(r.report, tc.want) {
			t.Errorf("Check(%q) reported %q, want %q", tc.got, r.report, tc.want)
		}
	}
}
