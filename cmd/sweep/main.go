// Command sweep runs a learning strategy across multiple seeds in
// parallel and reports the distribution of outcomes — implementing the
// paper's future-work item of "increasing the parallelism of the
// simulation to speed up learning strategy development iterations".
//
// Usage:
//
//	sweep -strategy opp -seeds 8 -rounds 20 [-small] [-workers N] [-cache DIR]
//
// Each seed's run is fully deterministic; parallelism is across runs.
// Sweeps are declared as a campaign manifest and submitted through the
// campaign scheduler (internal/campaign) — the same engine behind
// cmd/roadrunnerd — so passing -cache gives the sweep a durable
// content-addressed result store: repeating a sweep serves finished seeds
// byte-identically without re-executing them.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/repro"
	"roadrunner/internal/textplot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	stratName := flag.String("strategy", "fedavg", "strategy: fedavg, opp, gossip, centralized, hybrid, rsu")
	seeds := flag.Int("seeds", 8, "number of seeds (1..N)")
	rounds := flag.Int("rounds", 10, "rounds per run (for round-based strategies)")
	small := flag.Bool("small", false, "use the laptop-scale environment")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "durable result store directory (empty = run uncached)")
	flag.Parse()

	if *seeds <= 0 {
		return fmt.Errorf("need at least one seed")
	}
	// A manifest reads rounds 0 as its default of 10; refuse it instead.
	// The strategy name is validated by Expand, before anything runs.
	if *rounds <= 0 {
		return fmt.Errorf("need a positive round count")
	}

	env := campaign.EnvDefault
	base := core.DefaultConfig()
	if *small {
		env = campaign.EnvSmall
		base = core.SmallConfig()
	}
	seedList := make([]uint64, *seeds)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	m := campaign.Manifest{
		Name:       fmt.Sprintf("sweep-%s", *stratName),
		Env:        env,
		Rounds:     *rounds,
		Strategies: []campaign.StrategySpec{{Kind: *stratName}},
		Seeds:      seedList,
	}
	if *stratName == "rsu" && base.RSUCount == 0 {
		rsus := 8
		m.Overrides = []campaign.Override{{Name: "rsu8", RSUCount: &rsus}}
	}
	specs, err := m.Expand()
	if err != nil {
		return err
	}
	tasks := make([]campaign.Task, len(specs))
	for i, spec := range specs {
		if tasks[i], err = campaign.TaskForSpec(spec); err != nil {
			return err
		}
	}

	opts := campaign.Options{Workers: *workers, MaxAttempts: 1}
	if *cacheDir != "" {
		store, err := campaign.OpenStore(*cacheDir)
		if err != nil {
			return err
		}
		opts.Store = store
		opts.MaxAttempts = 2
	}
	sched := campaign.NewScheduler(opts)

	start := time.Now() //roadlint:allow wallclock sweep harness timing, printed to the operator
	results := sched.Execute(tasks)
	wall := time.Since(start) //roadlint:allow wallclock sweep harness timing, printed to the operator

	var accs []float64
	var rows [][]string
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("run %s: %w", r.Name, r.Err)
		}
		acc := repro.LateAccuracy(r.Result, 3)
		accs = append(accs, acc)
		source := "run"
		if r.Cached {
			source = "cache"
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", acc),
			fmt.Sprintf("%.0f", r.Result.Metrics.Counter(metrics.CounterRounds)),
			fmt.Sprintf("%.2f", float64(r.Result.Comm["v2c"].BytesDelivered)/1e6),
			source,
			r.Result.Wall.Round(time.Millisecond).String(),
		})
	}
	fmt.Print(textplot.Table([]string{"run", "late acc", "rounds", "v2c MB", "src", "wall"}, rows))

	mean, std := meanStd(accs)
	fmt.Printf("\nlate accuracy over %d seeds: %.3f ± %.3f (min %.3f, max %.3f)\n",
		len(accs), mean, std, minOf(accs), maxOf(accs))
	st := sched.Stats()
	fmt.Printf("sweep wall time: %v (%d workers, %d executed, %d cached)\n",
		wall.Round(time.Millisecond), effectiveWorkers(*workers, len(specs)), st.Executed, st.Cached)
	return nil
}

func meanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(values)))
	return mean, std
}

func minOf(values []float64) float64 {
	out := math.Inf(1)
	for _, v := range values {
		out = math.Min(out, v)
	}
	return out
}

func maxOf(values []float64) float64 {
	out := math.Inf(-1)
	for _, v := range values {
		out = math.Max(out, v)
	}
	return out
}

func effectiveWorkers(requested, jobs int) int {
	if requested <= 0 {
		requested = jobs
	}
	if requested > jobs {
		requested = jobs
	}
	return requested
}
