// Package golden is the tree's one pin helper. A behaviour pin renders
// what the simulator produced as text and Check holds it to a file
// under the package's testdata; run with -update (`make rebaseline`),
// Check rewrites the file instead, so a change that moves a number on
// purpose shows the moved numbers as its diff.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Check fails t unless got equals the file at path, reporting the first
// line that differs. Under -update it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("%s:%d: got\n\t%s\nwant\n\t%s", path, i+1, gl[i], wl[i])
			return
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// Digest is the one digest a pin may write, for a sequence too long to
// read line by line (an epoch series, model weights, an op stream): the
// 64-bit FNV-1a of its text, in hex. The pin writes the sequence's
// length and summary values beside it, so a moved digest comes with
// numbers that say how far it moved.
func Digest(text []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(text) // a hash.Hash never returns an error
	return fmt.Sprintf("%016x", h.Sum64())
}

// Names fails t unless the `obs` tags of the struct ledger points to
// are, as a sorted list with repeats kept, exactly want — so a repeated
// or misspelt name fails too.
func Names(t *testing.T, ledger any, want ...string) {
	t.Helper()
	var got []string
	for i, typ := 0, reflect.TypeOf(ledger).Elem(); i < typ.NumField(); i++ {
		if name, ok := typ.Field(i).Tag.Lookup("obs"); ok {
			got = append(got, name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%T exports\n %q, want\n %q", ledger, got, want)
	}
}
