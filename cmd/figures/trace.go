package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"roadrunner/internal/repro"
	"roadrunner/internal/textplot"
	"roadrunner/internal/trace"
)

// figureT produces the observability artifact: Figure 4's BASE and OPP
// runs with tracing on, exported both as Chrome trace_event JSON (open in
// chrome://tracing or https://ui.perfetto.dev) and as the canonical CSV the
// byte-identity tests are defined over. The spans live on the simulated
// clock, so the timeline shows rounds, transfers, trainings, and fault
// windows in experiment time, not host time.
func figureT(rounds int, seed uint64, outDir string) error {
	if rounds <= 0 {
		rounds = 10 // traces grow linearly with rounds; keep the artifact small
	}
	fmt.Printf("== Trace T: span timelines for BASE and OPP — %d rounds, seed %d ==\n", rounds, seed)

	specs := repro.Fig4Specs(rounds, seed)
	for i := range specs {
		specs[i].Config.Trace = true
	}
	results, err := repro.Execute(specs...)
	if err != nil {
		return fmt.Errorf("trace T: %w", err)
	}
	for i, name := range []string{"base", "opp"} {
		if err := writeTrace(results[i].Trace, outDir, "trace_"+name); err != nil {
			return err
		}
		printTraceSummary(name, results[i].Trace)
	}
	fmt.Println("open the .json files in chrome://tracing or https://ui.perfetto.dev")
	fmt.Println()
	return nil
}

// writeTrace exports one trace under both formats: <stem>.json for trace
// viewers, <stem>.csv as the canonical byte-identical form.
func writeTrace(t *trace.Trace, outDir, stem string) error {
	jsonPath := filepath.Join(outDir, stem+".json")
	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("create %s: %w", jsonPath, err)
	}
	err = t.WriteChromeJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", jsonPath, err)
	}
	fmt.Printf("wrote %s\n", jsonPath)

	csvPath := filepath.Join(outDir, stem+".csv")
	b, err := t.CanonicalBytes()
	if err != nil {
		return fmt.Errorf("canonicalize %s: %w", csvPath, err)
	}
	if err := os.WriteFile(csvPath, b, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", csvPath, err)
	}
	fmt.Printf("wrote %s\n", csvPath)
	return nil
}

// printTraceSummary prints per-kind span counts so the terminal run shows
// what the artifact contains without a trace viewer.
func printTraceSummary(name string, t *trace.Trace) {
	byKind := map[string]int{}
	for i := range t.Spans {
		byKind[t.Spans[i].Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	rows := make([][]string, 0, len(kinds))
	for _, k := range kinds {
		rows = append(rows, []string{k, fmt.Sprintf("%d", byKind[k])})
	}
	fmt.Printf("%s: %d spans\n", name, len(t.Spans))
	fmt.Print(textplot.Table([]string{"kind", "spans"}, rows))
	fmt.Println()
}
