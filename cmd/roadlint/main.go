// Command roadlint runs the project's determinism-and-concurrency static
// analyzers over Go packages and exits non-zero on any finding, so it can
// gate CI next to go vet and the race detector.
//
// Usage:
//
//	roadlint [-rules r1,r2] [-list] [patterns...]
//
// Patterns are package directories or go-tool-style "dir/..." trees inside
// a Go module; the default is "./...". A .go file or a directory outside
// any module is a load error. Packages are type-checked against the whole
// module graph, so rules see resolved cross-package types. Findings are
// printed to stdout as
//
//	file:line:col: rule: message
//
// Findings are suppressed per line with "//roadlint:allow <rule>
// [justification]" on the offending line or the line directly above it;
// the suppressaudit rule flags directives that no longer suppress
// anything. Exit status: 2 on a usage or load error, 1 on any finding,
// 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"roadrunner/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("roadlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: roadlint [-rules r1,r2] [-list] [patterns...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *rules != "" {
		selected, err := selectRules(analyzers, *rules)
		if err != nil {
			fmt.Fprintln(errOut, "roadlint:", err)
			return 2
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(errOut, "roadlint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		d.Pos.Filename = relPath(d.Pos.Filename)
		fmt.Fprintln(out, d)
	}
	fmt.Fprintf(errOut, "roadlint: %d finding(s)\n", len(diags))
	return 1
}

func selectRules(all []lint.Analyzer, spec string) ([]lint.Analyzer, error) {
	byName := make(map[string]lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// relPath shortens a path relative to the working directory when that is
// both possible and actually shorter to read.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
