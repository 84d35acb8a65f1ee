// Command flacvet vets arena code against the coherence discipline of
// the non-coherent fabric: no Go pointers in the arena, write-back
// before publishing atomics, invalidate before decoding published
// bytes, no arena offsets retained past their grace period, and ranged
// cache maintenance only through the ds publication primitives. See
// internal/coherlint for the rules and the annotation syntax, and
// DESIGN.md "The coherence contract".
//
// Usage:
//
//	go run ./cmd/flacvet ./...
//	go run ./cmd/flacvet -rules read-without-invalidate ./internal/flacdk/ds
//
// It exits 1 when any diagnostic is reported, so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"flacos/internal/coherlint"
)

func main() {
	var (
		rules = flag.String("rules", "all", "comma-separated analyzer names to run (default: the whole suite)")
		dir   = flag.String("C", ".", "directory to resolve package patterns from (the module root)")
		list  = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Parse()
	if *list {
		for _, a := range coherlint.All() {
			fmt.Printf("%-28s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := coherlint.ByName(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flacvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := coherlint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flacvet:", err)
		os.Exit(2)
	}
	diags, err := coherlint.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flacvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flacvet: %d coherence-contract violation(s)\n", len(diags))
		os.Exit(1)
	}
}
