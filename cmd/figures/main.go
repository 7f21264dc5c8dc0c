// Command figures regenerates the paper's evaluation figures and the
// ablation sweeps from DESIGN.md's experiment index, writing CSV data files
// and printing terminal charts.
//
// Usage:
//
//	figures -fig 4            # the paper's Figure 4 (BASE vs OPP)
//	figures -fig A            # ablation A: OPP round duration
//	figures -fig B            # ablation B: reporters per round
//	figures -fig C            # ablation C: V2X range
//	figures -fig D            # ablation D: data skew
//	figures -fig E            # ablation E: ignition churn
//	figures -fig F            # ablation F: RSU deployment density (extension)
//	figures -fig G            # ablation G: fault scenarios (BASE vs OPP under degradation)
//	figures -fig H            # ablation H: channel models (analytic/radio/queued/oracle)
//	figures -fig T            # trace T: simulated-time span timelines (Chrome JSON + CSV)
//	figures -fig all          # everything
//
// Flags -rounds and -seed scale and re-seed the experiments; -out selects
// the CSV output directory. The paper's Figure 4 uses 75 rounds; ablations
// default to 20 rounds to keep the sweep affordable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"roadrunner/internal/repro"
	"roadrunner/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// figure is one entry of the command: everything -fig selects.
type figure struct {
	key    string // the -fig value; its lower case is accepted too
	title  string
	scaled bool     // the header also names the rounds and seed
	rounds int      // rounds per run when -rounds is 0
	files  []string // what it writes under -out, in the order written
	// render runs the figure at (rounds, seed) and renders it on p, whose
	// files are the entry's files.
	render func(p page, rounds int, seed uint64) error
}

// figures is every figure in -fig all order.
var figures = []figure{
	{key: "4", title: "Figure 4: BASE (FL) vs OPP at equal V2C budget", scaled: true, rounds: 75, // the paper's setting
		files: []string{"fig4_accuracy.csv", "fig4_exchanges.csv"}, render: figure4},
	ablation("A", "Ablation A: OPP round duration (more exchange opportunity vs longer runs & churn)",
		"ablation_a_round_duration.csv", sweepTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationRoundDuration(rounds, seed, []sim.Duration{50, 100, 200, 400})
		}),
	ablation("B", "Ablation B: reporters per round (V2C budget vs accuracy)",
		"ablation_b_reporters.csv", sweepTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationReporters(rounds, seed, []int{2, 5, 10, 20})
		}),
	ablation("C", "Ablation C: V2X range (vehicle-density proxy for OPP's gain)",
		"ablation_c_v2x_range.csv", sweepTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationV2XRange(rounds, seed, []float64{50, 100, 200, 400})
		}),
	ablation("D", "Ablation D: data skew (shards per vehicle; IID = no skew)",
		"ablation_d_skew.csv", skewTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationSkew(rounds, seed, repro.DefaultSkewSweep())
		}),
	ablation("E", "Ablation E: ignition churn (reporter power-off discards collected models)",
		"ablation_e_churn.csv", sweepTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationChurn(rounds, seed, []float64{0, 0.3, 0.5, 0.8})
		}),
	ablation("F", "Ablation F: RSU deployment density (zero-V2C collection, extension)",
		"ablation_f_rsus.csv", sweepTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationRSUCount(rounds, seed, []int{2, 4, 8, 16})
		}),
	ablation("G", "Ablation G: fault scenarios (BASE vs OPP under time-correlated degradation)",
		"ablation_g_faults.csv", faultTable, func(rounds int, seed uint64) ([]repro.Summary, error) {
			return repro.AblationFaults(rounds, seed, repro.DefaultFaultSweep())
		}),
	ablation("H", "Ablation H: channel models (BASE vs OPP under radio-realistic transfer times)",
		"ablation_h_channels.csv", channelTable, repro.AblationChannels),
	{key: "T", title: "Trace T: span timelines for BASE and OPP", scaled: true,
		rounds: 10, // traces grow linearly with rounds; keep the artifact small
		files:  []string{"trace_base.json", "trace_base.csv", "trace_opp.json", "trace_opp.csv"}, render: figureT},
}

// run parses args as the command line and renders the chosen figures on w.
// Every argument is checked before anything runs.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "4", "figure to regenerate: 4, A, B, C, D, E, F, G, H, T, or all")
	rounds := fs.Int("rounds", 0, "rounds per run (0 = figure default: 75 for Fig 4, 20 for ablations)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	out := fs.String("out", "results", "output directory for CSV files")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; that is a success
		}
		return err
	}
	if *rounds < 0 {
		return fmt.Errorf("need a non-negative round count, got %d", *rounds)
	}
	chosen := figures
	if *fig != "all" {
		chosen = nil
		for _, f := range figures {
			if *fig == f.key || *fig == strings.ToLower(f.key) {
				chosen = []figure{f}
			}
		}
		if chosen == nil {
			return fmt.Errorf("unknown figure %q", *fig)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	for _, f := range chosen {
		r := *rounds
		if r == 0 {
			r = f.rounds
		}
		header := f.title
		if f.scaled {
			header += fmt.Sprintf(" — %d rounds, seed %d", r, *seed)
		}
		fmt.Fprintf(w, "== %s ==\n", header)
		if err := f.render(page{w: w, dir: *out, files: f.files}, r, *seed); err != nil {
			return err
		}
	}
	return nil
}
