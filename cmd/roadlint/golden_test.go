package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares got against testdata/<name>, rewriting the golden
// when the test runs with -update (the cmd/figures convention).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run 'go test ./cmd/roadlint -update' if the change is intended)",
			name, got, want)
	}
}

// TestTextGolden lints the detrand and wallclock bad fixtures and pins
// stdout byte for byte. The fixture set and rule subset are fixed so the
// output only changes when the report line itself does.
func TestTextGolden(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{
		"-rules", "detrand,wallclock",
		fixtures + "/detrand/bad",
		fixtures + "/wallclock/bad",
	}
	if code := run(args, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	checkGolden(t, "report.golden.txt", []byte(out.String()))
}
