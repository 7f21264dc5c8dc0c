// Benchmark harness for the paper's evaluation (DESIGN.md experiment
// index): one benchmark per figure/ablation, each running the genuine
// experiment at reduced round count and reporting the figure's headline
// numbers as custom benchmark metrics. Regenerate the full-scale figures
// with cmd/figures.
package roadrunner_test

import (
	"strconv"
	"testing"

	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/repro"
	"roadrunner/internal/sim"
)

// benchRounds keeps per-iteration cost around a second; the full paper
// experiment uses 75 rounds (see cmd/figures -fig 4 -rounds 75).
const benchRounds = 5

// fig4Run runs one side of Figure 4 (0 = BASE, 1 = OPP) at benchRounds.
func fig4Run(side int, seed uint64) (*core.Result, error) {
	results, err := repro.Execute(repro.Fig4Specs(benchRounds, seed)[side])
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// BenchmarkFig4BASE runs the paper's baseline: vanilla FL, 5 vehicles per
// 30 s round (Figure 4, blue curve).
func BenchmarkFig4BASE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fig4Run(0, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(repro.LateAccuracy(res, 3), "accuracy")
		b.ReportMetric(float64(res.End)/float64(benchRounds), "simsec/round")
	}
}

// BenchmarkFig4OPP runs the paper's opportunistic strategy: 5 reporters per
// 200 s round with V2X forwarding (Figure 4, red curve + bars).
func BenchmarkFig4OPP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fig4Run(1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(repro.LateAccuracy(res, 3), "accuracy")
		if ex := res.Metrics.Series("v2x_exchanges_per_round"); ex != nil {
			b.ReportMetric(ex.Mean(), "v2x-exch/round")
		}
		b.ReportMetric(float64(res.End)/float64(benchRounds), "simsec/round")
	}
}

// BenchmarkAblationRoundDuration sweeps OPP's round timer (ablation A).
func BenchmarkAblationRoundDuration(b *testing.B) {
	for _, d := range []sim.Duration{50, 400} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := repro.AblationRoundDuration(3, uint64(i+1), []sim.Duration{d})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].AvgExchanges, "v2x-exch/round")
				b.ReportMetric(rows[0].FinalAcc, "accuracy")
			}
		})
	}
}

// BenchmarkAblationReporters sweeps the per-round reporter count
// (ablation B).
func BenchmarkAblationReporters(b *testing.B) {
	for _, r := range []int{2, 10} {
		r := r
		b.Run(benchName("R", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := repro.AblationReporters(3, uint64(i+1), []int{r})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].V2CMB, "v2c-MB")
				b.ReportMetric(rows[0].FinalAcc, "accuracy")
			}
		})
	}
}

// BenchmarkAblationV2XRange sweeps the V2X radio range (ablation C).
func BenchmarkAblationV2XRange(b *testing.B) {
	for _, rangeM := range []float64{50, 400} {
		rangeM := rangeM
		b.Run(benchName("m", int(rangeM)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := repro.AblationV2XRange(3, uint64(i+1), []float64{rangeM})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].AvgExchanges, "v2x-exch/round")
			}
		})
	}
}

// BenchmarkAblationSkew sweeps the per-vehicle class distribution
// (ablation D), running BASE and OPP per point.
func BenchmarkAblationSkew(b *testing.B) {
	sweeps := map[string]dataset.PartitionConfig{
		"shards1": {Scheme: dataset.SchemeShards, PerAgent: 80, ShardsPerAgent: 1},
		"iid":     {Scheme: dataset.SchemeIID, PerAgent: 80},
	}
	for name, pc := range sweeps {
		pc := pc
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := repro.AblationSkew(3, uint64(i+1), []dataset.PartitionConfig{pc})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].FinalAcc, "base-accuracy")
				b.ReportMetric(points[1].FinalAcc, "opp-accuracy")
			}
		})
	}
}

// BenchmarkAblationChurn sweeps ignition churn (ablation E).
func BenchmarkAblationChurn(b *testing.B) {
	for _, p := range []float64{0, 0.8} {
		p := p
		b.Run(benchName("poff", int(p*10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := repro.AblationChurn(3, uint64(i+1), []float64{p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].Discarded, "discarded")
			}
		})
	}
}

// BenchmarkExperimentThroughput measures raw simulation throughput
// (events/second of host time) on the laptop-scale configuration —
// the paper's requirement 6 ("quick execution ... significant speed-up
// over an experiment in a real VCPS").
func BenchmarkExperimentThroughput(b *testing.B) {
	events := uint64(0)
	simSeconds := 0.0
	for i := 0; i < b.N; i++ {
		out, err := repro.Fig4(2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		events += out.Base.EventsProcessed + out.Opp.EventsProcessed
		simSeconds += float64(out.BaseEnd) + float64(out.OppEnd)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "simsec/wallsec")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
