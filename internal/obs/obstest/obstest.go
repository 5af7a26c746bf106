// Package obstest holds the two checks every exported ledger gets in
// its package's tests: the registry snapshot against a golden recorded
// on the tree before the ledgers were exported, and the ledger's tags
// against the list of names the package published then.
package obstest

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"testing"

	"rafiki/internal/obs"
)

// Golden fails t unless reg's snapshot JSON equals the file at path byte
// for byte, reporting the first line that differs (the JSON holds one
// counter per line). It never writes the file: a golden is recorded by
// running the same test on a checkout of the tree it vouches for.
func Golden(t *testing.T, reg *obs.Registry, path string) {
	t.Helper()
	got, err := reg.Snapshot().JSON()
	want, rerr := os.ReadFile(path)
	if err != nil || rerr != nil {
		t.Fatal(err, rerr)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d: snapshot has %s, golden %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: snapshot has %d lines, golden %d", path, len(gl), len(wl))
	}
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
