package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"roadrunner/internal/comm"
	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/repro"
	"roadrunner/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares got against testdata/<name>, rewriting the golden
// when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
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
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run 'go test ./cmd/figures -update' if the change is intended)",
			name, got, want)
	}
}

// goldenResult builds a fixed synthetic result with the series the fig4 CSV
// writers consume.
func goldenResult(t *testing.T) *core.Result {
	t.Helper()
	rec := metrics.NewRecorder()
	record := func(name string, at sim.Time, v float64) {
		t.Helper()
		if err := rec.Record(name, at, v); err != nil {
			t.Fatal(err)
		}
	}
	record(metrics.SeriesAccuracy, 30, 0.25)
	record(metrics.SeriesAccuracy, 60, 0.5)
	record(metrics.SeriesAccuracy, 90, 0.625)
	record(metrics.SeriesRoundExchanges, 30, 4)
	record(metrics.SeriesRoundExchanges, 60, 9)
	record(metrics.SeriesRoundExchanges, 90, 7)
	return &core.Result{
		Metrics:         rec,
		Comm:            map[string]comm.Stats{"v2c": {BytesDelivered: 1 << 20}, "v2x": {}},
		End:             90,
		FinalAccuracy:   0.625,
		EventsProcessed: 123,
	}
}

// writeTable writes t as name in a fresh directory through the figures'
// one CSV writer and returns the file's bytes.
func writeTable(t *testing.T, name string, tbl table) []byte {
	t.Helper()
	p := page{w: io.Discard, dir: t.TempDir()}
	if err := p.write(name, tbl); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	got, err := os.ReadFile(filepath.Join(p.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFig4CSVGolden pins the exact file format of the results/fig4_*.csv
// artifacts — headers and row encoding — so a refactor of the writers
// cannot silently change the published data layout.
func TestFig4CSVGolden(t *testing.T) {
	res := goldenResult(t)
	checkGolden(t, "fig4_accuracy.golden.csv", writeTable(t, "fig4_accuracy.csv", accuracyTable(res, res)))
	checkGolden(t, "fig4_exchanges.golden.csv", writeTable(t, "fig4_exchanges.csv", exchangesTable(res)))
}

// TestAblationGCSVGolden pins the results/ablation_g_faults.csv format.
func TestAblationGCSVGolden(t *testing.T) {
	sums := []repro.Summary{
		{Param: "fault-free", Strategy: "BASE", FinalAcc: 0.5, SimEnd: 900, V2CMB: 1.25},
		{Param: "blackout", Strategy: "BASE", FinalAcc: 0.375, Faults: 12, SimEnd: 900, V2CMB: 0.75},
		{Param: "blackout", Strategy: "OPP", FinalAcc: 0.4375, Faults: 9, SimEnd: 2000, V2CMB: 0.5, V2XMB: 2.5},
	}
	checkGolden(t, "ablation_g_faults.golden.csv", writeTable(t, "ablation_g_faults.csv", faultTable(sums)))
}

// TestAblationHCSVGolden pins the results/ablation_h_channels.csv format.
func TestAblationHCSVGolden(t *testing.T) {
	sums := []repro.Summary{
		{Param: "analytic", Strategy: "BASE", FinalAcc: 0.5, SimEnd: 900, V2CMB: 1.25},
		{Param: "radio", Strategy: "BASE", FinalAcc: 0.4375, SimEnd: 1100, V2CMB: 1, FailedMsgs: 7},
		{Param: "radio+queued", Strategy: "OPP", FinalAcc: 0.375, SimEnd: 2000, V2CMB: 0.5, V2XMB: 2.5, FailedMsgs: 13},
		{Param: "oracle", Strategy: "OPP", FinalAcc: 0.40625, SimEnd: 1900, V2CMB: 0.625, V2XMB: 2.25, FailedMsgs: 4},
	}
	checkGolden(t, "ablation_h_channels.golden.csv", writeTable(t, "ablation_h_channels.csv", channelTable(sums)))
}
