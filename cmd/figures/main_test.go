package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/repro"
	"roadrunner/internal/sim"
)

func TestFormatF(t *testing.T) {
	if got := formatF(1.5); got != "1.5" {
		t.Fatalf("formatF(1.5) = %q", got)
	}
	if got := formatF(3592); got != "3592" {
		t.Fatalf("formatF(3592) = %q", got)
	}
}

// TestAblationRoundsDefault holds each figure to the default round count
// the -rounds usage names: the paper's 75 for Figure 4, 20 for the
// ablations, and 10 for trace T.
func TestAblationRoundsDefault(t *testing.T) {
	for _, f := range figures {
		want := defaultAblationRounds
		switch f.key {
		case "4":
			want = 75
		case "T":
			want = 10
		}
		if f.rounds != want {
			t.Errorf("figure %s defaults to %d rounds, want %d", f.key, f.rounds, want)
		}
	}
}

// TestRunRejectsBadArgs: a negative -rounds (which would otherwise read as
// "use the default" and start a full-size run) and an unknown -fig are
// refused before anything runs or is written.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-rounds", "-1"},
		{"-fig", "all", "-rounds", "-5"},
		{"-fig", "Z"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		var stdout bytes.Buffer
		if err := run(append(args, "-out", out), &stdout); err == nil {
			t.Errorf("%v accepted", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v created the output dir (stat: %v)", args, err)
		}
	}
}

// TestRunHelp: -h prints the usage and succeeds, as it did when the
// command parsed the process's flag set.
func TestRunHelp(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-h"}, &stdout); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h rendered %q", stdout.String())
	}
}

func TestWriteRowsCSV(t *testing.T) {
	sums := []repro.Summary{
		{Param: "a", FinalAcc: 0.5, AvgExchanges: 10, SimEnd: 3592, V2CMB: 9.27},
		{Param: "b", FinalAcc: 0.25, Discarded: 4},
	}
	out := string(writeTable(t, "rows.csv", sweepTable(sums)))
	for _, want := range []string{"param,final_acc", "a,0.5,10", "b,0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
	p := page{w: io.Discard, dir: filepath.Join(t.TempDir(), "missing")}
	if err := p.write("x.csv", sweepTable(sums)); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

func TestAccuracySeriesConversion(t *testing.T) {
	mk := func(values ...float64) *core.Result {
		rec := metrics.NewRecorder()
		for i, v := range values {
			if err := rec.Record(metrics.SeriesAccuracy, sim.Time(i), v); err != nil {
				t.Fatal(err)
			}
		}
		return &core.Result{Metrics: rec}
	}
	series := accuracySeries(mk(0.1, 0.2), mk(0.3))
	if len(series) != 2 {
		t.Fatalf("series count = %d", len(series))
	}
	if series[0].Name != "BASE accuracy" || len(series[0].Points) != 2 {
		t.Fatalf("base series = %+v", series[0])
	}
	if series[1].Points[0].Y != 0.3 {
		t.Fatalf("opp point = %+v", series[1].Points[0])
	}
	// Empty recorder: no points but no panic.
	empty := &core.Result{Metrics: metrics.NewRecorder()}
	series = accuracySeries(empty, empty)
	if len(series[0].Points) != 0 {
		t.Fatal("empty result produced points")
	}
}

func TestWriteAccuracyAndExchangesCSV(t *testing.T) {
	rec := metrics.NewRecorder()
	if err := rec.Record(metrics.SeriesAccuracy, 30, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(metrics.SeriesRoundExchanges, 200, 12); err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Metrics: rec}

	raw := writeTable(t, "acc.csv", accuracyTable(res, res))
	if !strings.Contains(string(raw), "BASE,30,0.2") || !strings.Contains(string(raw), "OPP,30,0.2") {
		t.Fatalf("accuracy csv wrong:\n%s", raw)
	}
	raw = writeTable(t, "ex.csv", exchangesTable(res))
	if !strings.Contains(string(raw), "1,200,12") {
		t.Fatalf("exchanges csv wrong:\n%s", raw)
	}
}
