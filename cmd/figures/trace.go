package main

import (
	"fmt"
	"io"
	"sort"

	"roadrunner/internal/repro"
	"roadrunner/internal/trace"
)

// figureT produces the observability artifact: Figure 4's BASE and OPP
// runs with tracing on, each exported both as Chrome trace_event JSON (open
// in chrome://tracing or https://ui.perfetto.dev) and as the canonical CSV
// the byte-identity tests are defined over; p.files holds the two names of
// each run in that order. The spans live on the simulated clock, so the
// timeline shows rounds, transfers, trainings, and fault windows in
// experiment time, not host time.
func figureT(p page, rounds int, seed uint64) error {
	specs := repro.Fig4Specs(rounds, seed)
	for i := range specs {
		specs[i].Config.Trace = true
	}
	results, err := repro.Execute(specs...)
	if err != nil {
		return fmt.Errorf("trace T: %w", err)
	}
	for i, name := range []string{"base", "opp"} {
		tr := results[i].Trace
		if err := p.create(p.files[2*i], tr.WriteChromeJSON); err != nil {
			return err
		}
		err := p.create(p.files[2*i+1], func(w io.Writer) error {
			b, err := tr.CanonicalBytes()
			if err == nil {
				_, err = w.Write(b)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(p.w, "%s: %d spans\n", name, len(tr.Spans))
		p.print(spanTable(tr))
	}
	fmt.Fprintln(p.w, "open the .json files in chrome://tracing or https://ui.perfetto.dev")
	fmt.Fprintln(p.w)
	return nil
}

// spanTable counts a trace's spans per kind, so the terminal run shows
// what the artifact contains without a trace viewer.
func spanTable(tr *trace.Trace) table {
	byKind := map[string]int{}
	for i := range tr.Spans {
		byKind[tr.Spans[i].Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	t := table{cols: []column{{term: "kind"}, {term: "spans"}}}
	for _, k := range kinds {
		t.rows = append(t.rows, []any{k, byKind[k]})
	}
	return t
}
