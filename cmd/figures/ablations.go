package main

import (
	"fmt"

	"roadrunner/internal/repro"
	"roadrunner/internal/textplot"
)

const defaultAblationRounds = 20

// ablation is the entry of a sweep figure: the sweep's summaries laid out
// by layout, printed, and written as the CSV file. A one-strategy sweep
// also gets a bar chart of the final accuracy at each parameter.
func ablation(key, title, file string, layout func([]repro.Summary) table,
	sweep func(rounds int, seed uint64) ([]repro.Summary, error)) figure {
	render := func(p page, rounds int, seed uint64) error {
		sums, err := sweep(rounds, seed)
		if err != nil {
			return err
		}
		t := layout(sums)
		p.print(t)
		if len(sums) > 0 && sums[0].Strategy == "" {
			labels := make([]string, len(sums))
			accs := make([]float64, len(sums))
			for i, s := range sums {
				labels[i], accs[i] = s.Param, s.FinalAcc
			}
			fmt.Fprintln(p.w, "final accuracy by parameter:")
			fmt.Fprint(p.w, textplot.Bars(labels, accs, 40))
			fmt.Fprintln(p.w)
		}
		return p.write(file, t)
	}
	return figure{key: key, title: title, rounds: defaultAblationRounds, files: []string{file}, render: render}
}

// sweepTable lays out a one-strategy sweep (ablations A, B, C, E, F).
func sweepTable(sums []repro.Summary) table {
	t := table{cols: []column{
		{"param", "param", 0}, {"final_acc", "acc", 3},
		{"avg_exchanges", "exch/rnd", 1}, {"avg_contribs", "contrib/rnd", 1},
		{"sim_end_s", "end[s]", 0}, {"v2c_mb", "v2c MB", 2}, {"v2x_mb", "v2x MB", 2},
		{"discarded", "discarded", 0},
	}}
	for _, s := range sums {
		t.rows = append(t.rows, []any{s.Param, s.FinalAcc, s.AvgExchanges, s.AvgContribs, s.SimEnd, s.V2CMB, s.V2XMB, s.Discarded})
	}
	return t
}

// skewTable lays out ablation D: one row per distribution from its BASE
// and OPP summaries, which repro.AblationSkew returns in that order.
func skewTable(sums []repro.Summary) table {
	t := table{cols: []column{{"distribution", "distribution", 0}, {"base_acc", "BASE acc", 3}, {"opp_acc", "OPP acc", 3}}}
	for i := 0; i+1 < len(sums); i += 2 {
		t.rows = append(t.rows, []any{sums[i].Param, sums[i].FinalAcc, sums[i+1].FinalAcc})
	}
	return t
}

// faultTable lays out ablation G: one row per (scenario, strategy).
func faultTable(sums []repro.Summary) table {
	t := table{cols: []column{
		{"scenario", "scenario", 0}, {"strategy", "strategy", 0}, {"final_acc", "acc", 3},
		{"faults", "faults", 0}, {"sim_end_s", "end[s]", 0}, {"v2c_mb", "v2c MB", 2}, {"v2x_mb", "v2x MB", 2},
	}}
	for _, s := range sums {
		t.rows = append(t.rows, []any{s.Param, s.Strategy, s.FinalAcc, s.Faults, s.SimEnd, s.V2CMB, s.V2XMB})
	}
	return t
}

// channelTable lays out ablation H: one row per (channel model, strategy).
func channelTable(sums []repro.Summary) table {
	t := table{cols: []column{
		{"model", "model", 0}, {"strategy", "strategy", 0}, {"final_acc", "acc", 3},
		{"sim_end_s", "end[s]", 0}, {"v2c_mb", "v2c MB", 2}, {"v2x_mb", "v2x MB", 2}, {"failed_msgs", "failed", 0},
	}}
	for _, s := range sums {
		t.rows = append(t.rows, []any{s.Param, s.Strategy, s.FinalAcc, s.SimEnd, s.V2CMB, s.V2XMB, s.FailedMsgs})
	}
	return t
}
