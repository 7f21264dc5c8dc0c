package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// collectorSeeds is the seed axis of the collector cells.
const collectorSeeds = 8

// TestCollectorCellsGolden pins the two collector strategies — OPP, whose
// collectors are reporter vehicles, and RSU-assisted, whose collectors are
// road-side units — to the canonical-byte digests in
// testdata/collector_cells.golden, over every channel model, the fault-free
// run and every fault scenario, and seeds 1–8. Both strategies run one
// encounter-exchange protocol, so a change to it must move no digest unless
// it is meant to (re-run with -update and commit the new file).
func TestCollectorCellsGolden(t *testing.T) {
	path := filepath.Join("testdata", "collector_cells.golden")
	var lines []string
	for _, c := range Cases() {
		if c.Name != "opportunistic" && c.Name != "rsu" {
			continue
		}
		for _, m := range ChannelModels() {
			for _, sc := range Scenarios() {
				for seed := uint64(1); seed <= collectorSeeds; seed++ {
					res, err := RunChannel(c, m, sc, seed)
					if err != nil {
						t.Fatal(err)
					}
					b, err := res.CanonicalBytes()
					if err != nil {
						t.Fatalf("%s/%s/%s/%d: canonical encode: %v", c.Name, m.Name, sc, seed, err)
					}
					sum := sha256.Sum256(b)
					lines = append(lines, fmt.Sprintf("%s/%s/%s/%d %s", c.Name, m.Name, sc, seed, hex.EncodeToString(sum[:])))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		moved := 0
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				if moved < 10 {
					t.Errorf("cell moved: got %q", gl[i])
				}
				moved++
			}
		}
		t.Errorf("%d of %d collector cells moved (run 'go test ./internal/conformance -update' if the change is intended)", moved, len(lines))
	}
}
