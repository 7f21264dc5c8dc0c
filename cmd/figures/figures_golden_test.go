package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFiguresDataGolden pins what the figures compute, not only their
// layout: Figure 4 and ablations A–H at 2 rounds on seed 1, each CSV
// compared byte for byte against testdata/r2s1/. A change that moves any
// simulated number fails here; regenerate with -update only when the
// change in results is intended, and say so where the results are quoted.
func TestFiguresDataGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at 2 rounds; skipped in -short mode")
	}
	const rounds, seed = 2, 1
	dir := t.TempDir()
	figures := []struct {
		name string
		run  func(int, uint64, string) error
		csvs []string
	}{
		{"4", figure4, []string{"fig4_accuracy.csv", "fig4_exchanges.csv"}},
		{"A", ablationA, []string{"ablation_a_round_duration.csv"}},
		{"B", ablationB, []string{"ablation_b_reporters.csv"}},
		{"C", ablationC, []string{"ablation_c_v2x_range.csv"}},
		{"D", ablationD, []string{"ablation_d_skew.csv"}},
		{"E", ablationE, []string{"ablation_e_churn.csv"}},
		{"F", ablationF, []string{"ablation_f_rsus.csv"}},
		{"G", ablationG, []string{"ablation_g_faults.csv"}},
		{"H", ablationH, []string{"ablation_h_channels.csv"}},
	}
	for _, f := range figures {
		if err := f.run(rounds, seed, dir); err != nil {
			t.Fatalf("figure %s: %v", f.name, err)
		}
		for _, name := range f.csvs {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("r2s1", name), got)
		}
	}
}
