// Command secvet is the repo's custom vet suite: four analyzers that
// make the codebase's hardest-won invariants compile-time properties —
//
//	hotpathalloc  no heap allocation reachable from the simulation hot path
//	wireenvelope  every HTTP error speaks the api error envelope
//	detachedctx   context.Background/TODO only at audited detachment seams
//	determinism   no wall clocks / unseeded rand / map iteration in golden-feeding code
//
// It loads the whole module at once, so hotpathalloc sees cross-package
// reachability:
//
//	go run ./cmd/secvet ./...        # or: go tool secvet ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"secureproc/internal/analysis"
	"secureproc/internal/analysis/detachedctx"
	"secureproc/internal/analysis/determinism"
	"secureproc/internal/analysis/hotpathalloc"
	"secureproc/internal/analysis/wireenvelope"
)

var analyzers = []*analysis.Analyzer{
	hotpathalloc.Analyzer,
	wireenvelope.Analyzer,
	detachedctx.Analyzer,
	determinism.Analyzer,
}

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: secvet [packages]   (default ./...)\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(standalone(flag.Args()))
}

// standalone loads the whole module (whole-program reachability) and
// prints findings to stdout.
func standalone(patterns []string) int {
	prog, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secvet:", err)
		return 2
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secvet:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "secvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
