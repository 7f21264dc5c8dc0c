package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresDataGolden pins what the figures compute and print, not only
// their layout: `figures -fig all -rounds 2 -seed 1 -out D` is run, and its
// standard output and every CSV the figure list declares (Figure 4,
// ablations A–H and trace T's canonical span CSVs) are compared byte for
// byte against testdata/r2s1/. A change that moves any simulated number or
// any printed line fails here; regenerate with -update only when the
// change is intended, and say so where the results are quoted.
func TestFiguresDataGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at 2 rounds; skipped in -short mode")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-fig", "all", "-rounds", "2", "-seed", "1", "-out", dir}, &stdout); err != nil {
		t.Fatal(err)
	}
	// The golden is the output of -out D, so it does not name a temp dir.
	checkGolden(t, filepath.Join("r2s1", "stdout.txt"), []byte(strings.ReplaceAll(stdout.String(), dir, "D")))
	for _, f := range figures {
		for _, name := range f.files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("figure %s: %v", f.key, err)
			}
			// The Chrome JSON is a view of the span CSV pinned beside it.
			if filepath.Ext(name) == ".csv" {
				checkGolden(t, filepath.Join("r2s1", name), got)
			}
		}
	}
}
