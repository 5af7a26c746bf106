// Command rafikilint runs the repo's determinism- and safety-aware
// static analyzers (internal/lint) over the tree and exits nonzero on
// any unsuppressed diagnostic.
//
// Usage:
//
//	rafikilint [-show-suppressed] [patterns...]
//
// Patterns are module-relative directories, optionally ending in /...
// (default "./..."). -show-suppressed also lists the findings silenced
// by //lint:allow, each with its reason.
//
// Suppression comments take the form
//
//	//lint:allow <analyzer> <reason...>
//
// trailing the flagged line or alone on the line above it; the reason
// is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"rafiki/internal/lint"
)

func main() {
	showSuppressed := flag.Bool("show-suppressed", false, "also list suppressed findings")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rafikilint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rafikilint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.All())
	failing := lint.Unsuppressed(diags)
	shown := failing
	if *showSuppressed {
		shown = diags
	}
	for _, d := range shown {
		if d.Suppressed {
			fmt.Printf("%s [suppressed: %s]\n", d, d.Reason)
		} else {
			fmt.Println(d)
		}
	}
	if len(failing) > 0 {
		fmt.Printf("rafikilint: %d finding(s) in %d package(s)\n", len(failing), len(pkgs))
		os.Exit(1)
	}
}
