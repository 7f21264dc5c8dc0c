// Command roadrunner runs a single VCPS learning-strategy experiment and
// writes its metrics.
//
// Usage:
//
//	roadrunner -strategy fedavg|opp|gossip|centralized|hybrid \
//	           [-config config.json] [-rounds N] [-seed S] \
//	           [-channel radio] [-channel-table table.csv] \
//	           [-channel-record trace.csv] \
//	           [-metrics out.csv] [-json out.json] [-v]
//
// Without -config, the paper's evaluation environment (DefaultConfig) is
// used. The config file holds a JSON-serialized experiment configuration;
// see `roadrunner -print-config` for a template.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"roadrunner/internal/channel"
	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/strategy"
	"roadrunner/internal/textplot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roadrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	stratName := flag.String("strategy", "fedavg", "learning strategy: fedavg, opp, gossip, centralized, hybrid, rsu")
	configPath := flag.String("config", "", "JSON experiment config (default: the paper's evaluation environment)")
	rounds := flag.Int("rounds", 0, "override the strategy's round count (0 = strategy default)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 = config value)")
	chModel := flag.String("channel", "", "channel model: analytic, radio, queued, radio+queued, oracle (default: config value)")
	chTable := flag.String("channel-table", "", "chantable CSV for -channel oracle (see cmd/chanfit)")
	chRecord := flag.String("channel-record", "", "record the per-transfer channel trace to this chantrace CSV")
	metricsOut := flag.String("metrics", "", "write metrics CSV to this path")
	jsonOut := flag.String("json", "", "write metrics JSON to this path")
	printConfig := flag.Bool("print-config", false, "print the default config JSON and exit")
	small := flag.Bool("small", false, "use the laptop-scale SmallConfig environment")
	verbose := flag.Bool("v", false, "log strategy diagnostics to stderr")
	flag.Parse()

	if *printConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(core.DefaultConfig())
	}

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.SmallConfig()
	}
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			return fmt.Errorf("read config: %w", err)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return fmt.Errorf("parse config: %w", err)
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *verbose {
		cfg.LogWriter = os.Stderr
	}
	if *chModel != "" {
		ch := &channel.Config{Model: *chModel}
		if *chTable != "" {
			ch.Oracle = &channel.OracleConfig{TablePath: *chTable}
		}
		cfg.Comm.Channel = ch
	} else if *chTable != "" {
		return fmt.Errorf("-channel-table requires -channel oracle")
	}
	if *chRecord != "" {
		cfg.ChannelRecord = true
	}

	strat, err := buildStrategy(*stratName, *rounds)
	if err != nil {
		return err
	}

	exp, err := core.New(cfg, strat)
	if err != nil {
		return err
	}
	fmt.Printf("running %s (seed %d)...\n", strat.Name(), cfg.Seed)
	res, err := exp.Run()
	if err != nil {
		return err
	}

	printSummary(os.Stdout, strat.Name(), res)
	if *chRecord != "" {
		if err := writeTo(*chRecord, res.ChannelLog.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d channel samples)\n", *chRecord, res.ChannelLog.Len())
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, res.Metrics.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, res.Metrics.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

func buildStrategy(name string, rounds int) (strategy.Strategy, error) {
	switch name {
	case "fedavg", "base":
		c := strategy.DefaultFedAvgConfig()
		if rounds > 0 {
			c.Rounds = rounds
		}
		return strategy.NewFederatedAveraging(c)
	case "opp", "opportunistic":
		c := strategy.DefaultOppConfig()
		if rounds > 0 {
			c.Rounds = rounds
		}
		return strategy.NewOpportunistic(c)
	case "gossip":
		return strategy.NewGossip(strategy.DefaultGossipConfig())
	case "centralized":
		c := strategy.DefaultCentralizedConfig()
		if rounds > 0 {
			c.Rounds = rounds
		}
		return strategy.NewCentralized(c)
	case "hybrid":
		return strategy.NewHybrid(strategy.DefaultHybridConfig())
	case "rsu", "rsu-assisted":
		c := strategy.DefaultRSUAssistedConfig()
		if rounds > 0 {
			c.Rounds = rounds
		}
		return strategy.NewRSUAssisted(c)
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}

func printSummary(w io.Writer, name string, res *core.Result) {
	fmt.Fprintf(w, "\n== %s: finished at t=%.0f s (wall %v, %d events) ==\n",
		name, float64(res.End), res.Wall.Round(1e6), res.EventsProcessed)

	if acc := res.Metrics.Series(metrics.SeriesAccuracy); acc != nil && acc.Len() > 1 {
		pts := make([]textplot.Point, acc.Len())
		for i, p := range acc.Points {
			pts[i] = textplot.Point{X: float64(p.T), Y: p.Value}
		}
		fmt.Fprint(w, textplot.Line([]textplot.Series{{Name: "global accuracy", Points: pts}}, 60, 12))
	}
	fmt.Fprintf(w, "final accuracy:   %.3f\n", res.FinalAccuracy)
	fmt.Fprintf(w, "rounds completed: %.0f\n", res.Metrics.Counter(metrics.CounterRounds))
	fmt.Fprintf(w, "train tasks:      %.0f\n", res.Metrics.Counter(metrics.CounterTrainTasks))
	fmt.Fprintf(w, "discarded models: %.0f\n", res.Metrics.Counter(metrics.CounterDiscardedModels))
	for _, kind := range []string{"v2c", "v2x", "wired"} {
		st := res.Comm[kind]
		if st.MessagesSent == 0 {
			continue
		}
		fmt.Fprintf(w, "%-5s traffic:    %d msgs sent, %d delivered, %d failed, %.2f MB delivered\n",
			kind, st.MessagesSent, st.MessagesDelivered, st.MessagesFailed,
			float64(st.BytesDelivered)/1e6)
	}
}

// writeTo creates path and fills it through write, returning the first
// error of the write or of closing the file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
