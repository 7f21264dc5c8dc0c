package main

import (
	"fmt"

	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/repro"
	"roadrunner/internal/textplot"
)

// figure4 reproduces the paper's Figure 4: accuracy-over-simulated-time
// curves for BASE and OPP plus the per-round V2X exchange bars.
func figure4(p page, rounds int, seed uint64) error {
	out, err := repro.Fig4(rounds, seed)
	if err != nil {
		return err
	}
	if err := p.write(p.files[0], accuracyTable(out.Base, out.Opp)); err != nil {
		return err
	}
	if err := p.write(p.files[1], exchangesTable(out.Opp)); err != nil {
		return err
	}

	fmt.Fprint(p.w, textplot.Line(accuracySeries(out.Base, out.Opp), 64, 16))
	fmt.Fprintln(p.w)

	ex := out.Opp.Metrics.Series(metrics.SeriesRoundExchanges)
	if ex != nil {
		values := make([]float64, ex.Len())
		for i, pt := range ex.Points {
			values[i] = pt.Value
		}
		fmt.Fprintln(p.w, "V2X exchanges per OPP round (distribution):")
		fmt.Fprint(p.w, textplot.Histogram(values, 5, 40))
		fmt.Fprintln(p.w)
	}

	// Each row has its own unit, so the cells come formatted.
	p.print(table{
		cols: []column{{term: "metric"}, {term: "BASE"}, {term: "OPP"}},
		rows: [][]any{
			{"run end [s]", fmt.Sprintf("%.0f", float64(out.BaseEnd)), fmt.Sprintf("%.0f", float64(out.OppEnd))},
			{"late accuracy", fmt.Sprintf("%.3f", out.BaseAccuracy), fmt.Sprintf("%.3f", out.OppAccuracy)},
			{"V2C MB delivered",
				fmt.Sprintf("%.2f", float64(out.Base.Comm["v2c"].BytesDelivered)/1e6),
				fmt.Sprintf("%.2f", float64(out.Opp.Comm["v2c"].BytesDelivered)/1e6)},
			{"V2X MB delivered",
				fmt.Sprintf("%.2f", float64(out.Base.Comm["v2x"].BytesDelivered)/1e6),
				fmt.Sprintf("%.2f", float64(out.Opp.Comm["v2x"].BytesDelivered)/1e6)},
		},
	})
	fmt.Fprintf(p.w, "avg V2X exchanges/round: %.2f (paper: just below 10)\n", out.AvgExchanges)
	fmt.Fprintf(p.w, "OPP/BASE time ratio:     %.2fx (paper: ~4.5x)\n", out.TimeRatio)
	fmt.Fprintf(p.w, "OPP accuracy gain:       %+.0f%% (paper: ~+50%%)\n\n", out.AccuracyGain*100)
	return nil
}

func accuracySeries(base, opp *core.Result) []textplot.Series {
	toPlot := func(res *core.Result, name string) textplot.Series {
		s := res.Metrics.Series(metrics.SeriesAccuracy)
		out := textplot.Series{Name: name}
		if s == nil {
			return out
		}
		for _, p := range s.Points {
			out.Points = append(out.Points, textplot.Point{X: float64(p.T), Y: p.Value})
		}
		return out
	}
	return []textplot.Series{toPlot(base, "BASE accuracy"), toPlot(opp, "OPP accuracy")}
}

// accuracyTable is Figure 4's curves: BASE's accuracy points, then OPP's.
func accuracyTable(base, opp *core.Result) table {
	t := table{cols: []column{{csv: "strategy"}, {csv: "t_s"}, {csv: "accuracy"}}}
	for _, side := range []struct {
		name string
		res  *core.Result
	}{{"BASE", base}, {"OPP", opp}} {
		if s := side.res.Metrics.Series(metrics.SeriesAccuracy); s != nil {
			for _, pt := range s.Points {
				t.rows = append(t.rows, []any{side.name, float64(pt.T), pt.Value})
			}
		}
	}
	return t
}

// exchangesTable is Figure 4's bars: OPP's V2X exchanges in each round.
func exchangesTable(opp *core.Result) table {
	t := table{cols: []column{{csv: "round"}, {csv: "t_s"}, {csv: "v2x_exchanges"}}}
	if s := opp.Metrics.Series(metrics.SeriesRoundExchanges); s != nil {
		for i, pt := range s.Points {
			t.rows = append(t.rows, []any{i + 1, float64(pt.T), pt.Value})
		}
	}
	return t
}
