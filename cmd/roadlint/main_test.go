package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata"

func TestExitNonZeroOnFindings(t *testing.T) {
	for _, rule := range []string{"detrand", "wallclock", "maporder", "forklabel", "forkflow", "goroutinejoin", "floatorder", "suppressaudit"} {
		t.Run(rule, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run([]string{fixtures + "/" + rule + "/bad"}, &out, &errOut)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
			}
			if !strings.Contains(out.String(), rule+":") {
				t.Fatalf("missing %s diagnostics:\n%s", rule, out.String())
			}
			if !strings.Contains(errOut.String(), "finding(s)") {
				t.Fatalf("missing summary:\n%s", errOut.String())
			}
		})
	}
}

func TestExitZeroWhenClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{fixtures + "/wallclock/good"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestRuleSelection(t *testing.T) {
	var out, errOut strings.Builder
	// The wallclock fixture is clean for every rule except wallclock.
	if code := run([]string{"-rules", "detrand,maporder", fixtures + "/wallclock/bad"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0 with wallclock disabled\n%s", code, out.String())
	}
}

func TestUnknownRule(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-rules", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown rule") {
		t.Fatalf("missing error: %s", errOut.String())
	}
}

func TestListRules(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{"detrand", "wallclock", "maporder", "forklabel", "forkflow", "goroutinejoin", "floatorder", "suppressaudit"} {
		if !strings.Contains(out.String(), rule) {
			t.Fatalf("rule %s missing from -list output:\n%s", rule, out.String())
		}
	}
}

// TestNoOtherFlags pins the command line to -rules and -list: any other
// flag is a usage error.
func TestNoOtherFlags(t *testing.T) {
	for _, flag := range []string{"-format", "-out", "-baseline", "-update-baseline", "-severity"} {
		var out, errOut strings.Builder
		if code := run([]string{flag, "x"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit = %d, want 2", flag, code)
		}
	}
}

// TestLoadErrorsExitTwo: roadlint loads packages through the module graph
// only, so a pattern outside any Go module, a single .go file and a
// missing directory are load errors (exit 2), not findings.
func TestLoadErrorsExitTwo(t *testing.T) {
	outside := t.TempDir()
	if err := os.WriteFile(filepath.Join(outside, "x.go"), []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, pattern, want string }{
		{"outside any module", outside, "outside any Go module"},
		{"outside any module, recursive", outside + "/...", "outside any Go module"},
		{"single .go file", fixtures + "/wallclock/bad/bad.go", "not a directory"},
		{"missing directory", fixtures + "/nope", "no such file"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run([]string{c.pattern}, &out, &errOut); code != 2 {
				t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
			}
			if !strings.Contains(errOut.String(), c.want) {
				t.Fatalf("stderr %q does not say %q", errOut.String(), c.want)
			}
		})
	}
}
