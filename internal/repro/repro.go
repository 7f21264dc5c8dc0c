// Package repro contains the paper-reproduction harness: one entry point
// per table/figure of the evaluation (§5.2), plus the ablation sweeps the
// paper motivates verbally. cmd/figures renders these as CSV and terminal
// charts; bench_test.go wraps them as benchmarks; the shape tests assert
// the qualitative results (who wins, by roughly what factor).
//
// The experiment index lives in DESIGN.md; paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"

	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/faults"
	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
)

// Fig4Output bundles everything the paper's Figure 4 reports: accuracy
// curves for BASE and OPP, the per-round V2X exchange counts, the average
// exchange count, and the two run end times.
type Fig4Output struct {
	Base *core.Result
	Opp  *core.Result

	// BaseEnd and OppEnd are the instants the respective 75-round runs
	// completed (paper: 3592 s and 16342 s).
	BaseEnd sim.Time
	OppEnd  sim.Time
	// AvgExchanges is the mean V2X exchange count per OPP round (paper:
	// "just below 10").
	AvgExchanges float64
	// BaseAccuracy and OppAccuracy are late-run accuracies (mean of the
	// last few rounds, to smooth the noisy curves).
	BaseAccuracy float64
	OppAccuracy  float64
	// AccuracyGain is OppAccuracy/BaseAccuracy - 1 (paper: ≈ +50%).
	AccuracyGain float64
	// TimeRatio is OppEnd/BaseEnd (paper: ≈ 4.5x).
	TimeRatio float64
}

// Fig4 reproduces the paper's evaluation experiment: BASE (FL, 30 s rounds)
// versus OPP (200 s rounds with V2X forwarding) on the same environment,
// fleet, data distribution, and V2C budget. rounds scales the experiment
// (the paper uses 75); seed fixes all randomness.
func Fig4(rounds int, seed uint64) (*Fig4Output, error) {
	baseRes, err := Fig4Base(rounds, seed)
	if err != nil {
		return nil, err
	}
	oppRes, err := Fig4Opp(rounds, seed)
	if err != nil {
		return nil, err
	}

	out := &Fig4Output{
		Base:         baseRes,
		Opp:          oppRes,
		BaseEnd:      baseRes.End,
		OppEnd:       oppRes.End,
		BaseAccuracy: LateAccuracy(baseRes, 3),
		OppAccuracy:  LateAccuracy(oppRes, 3),
	}
	if ex := oppRes.Metrics.Series(metrics.SeriesRoundExchanges); ex != nil {
		out.AvgExchanges = ex.Mean()
	}
	if out.BaseAccuracy > 0 {
		out.AccuracyGain = out.OppAccuracy/out.BaseAccuracy - 1
	}
	if out.BaseEnd > 0 {
		out.TimeRatio = float64(out.OppEnd) / float64(out.BaseEnd)
	}
	return out, nil
}

// Fig4Base runs only the BASE (vanilla FL) side of Figure 4.
func Fig4Base(rounds int, seed uint64) (*core.Result, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("repro: non-positive round count %d", rounds)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	fa := strategy.DefaultFedAvgConfig()
	fa.Rounds = rounds
	s, err := strategy.NewFederatedAveraging(fa)
	if err != nil {
		return nil, err
	}
	res, err := run(cfg, s)
	if err != nil {
		return nil, fmt.Errorf("repro: fig4 BASE: %w", err)
	}
	return res, nil
}

// Fig4Opp runs only the OPP side of Figure 4.
func Fig4Opp(rounds int, seed uint64) (*core.Result, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("repro: non-positive round count %d", rounds)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	oc := strategy.DefaultOppConfig()
	oc.Rounds = rounds
	s, err := strategy.NewOpportunistic(oc)
	if err != nil {
		return nil, err
	}
	res, err := run(cfg, s)
	if err != nil {
		return nil, fmt.Errorf("repro: fig4 OPP: %w", err)
	}
	return res, nil
}

func run(cfg core.Config, s strategy.Strategy) (*core.Result, error) {
	exp, err := core.New(cfg, s)
	if err != nil {
		return nil, err
	}
	return exp.Run()
}

// LateAccuracy returns the mean of the last k accuracy points (the curves
// are noisy at high skew, so single-point finals are unstable).
func LateAccuracy(res *core.Result, k int) float64 {
	s := res.Metrics.Series(metrics.SeriesAccuracy)
	if s == nil || s.Len() == 0 {
		return 0
	}
	n := s.Len()
	if k > n {
		k = n
	}
	sum := 0.0
	for _, p := range s.Points[n-k:] {
		sum += p.Value
	}
	return sum / float64(k)
}

// Row is one parameter point of an ablation sweep.
type Row struct {
	Param        string  `json:"param"`
	FinalAcc     float64 `json:"final_acc"`
	AvgExchanges float64 `json:"avg_exchanges"`
	AvgContribs  float64 `json:"avg_contribs"`
	SimEnd       float64 `json:"sim_end_s"`
	V2CMB        float64 `json:"v2c_mb"`
	V2XMB        float64 `json:"v2x_mb"`
	Discarded    float64 `json:"discarded_models"`
}

func rowFrom(param string, res *core.Result) Row {
	r := Row{
		Param:     param,
		FinalAcc:  LateAccuracy(res, 3),
		SimEnd:    float64(res.End),
		V2CMB:     float64(res.Comm["v2c"].BytesDelivered) / 1e6,
		V2XMB:     float64(res.Comm["v2x"].BytesDelivered) / 1e6,
		Discarded: res.Metrics.Counter(metrics.CounterDiscardedModels),
	}
	if ex := res.Metrics.Series(metrics.SeriesRoundExchanges); ex != nil {
		r.AvgExchanges = ex.Mean()
	}
	if c := res.Metrics.Series(metrics.SeriesRoundContributions); c != nil {
		r.AvgContribs = c.Mean()
	}
	return r
}

// AblationRoundDuration sweeps OPP's round duration (paper §5.2: "a longer
// round duration will give more opportunities for local aggregation of
// weights ... [but] increase the duration of the whole learning process,
// and increase the probability that a reporter vehicle is turned off").
func AblationRoundDuration(rounds int, seed uint64, durations []sim.Duration) ([]Row, error) {
	var rows []Row
	for _, d := range durations {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		oc := strategy.DefaultOppConfig()
		oc.Rounds = rounds
		oc.RoundDuration = d
		s, err := strategy.NewOpportunistic(oc)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation A (duration %v): %w", d, err)
		}
		rows = append(rows, rowFrom(fmt.Sprintf("%.0fs", float64(d)), res))
	}
	return rows, nil
}

// AblationReporters sweeps the per-round reporter count (the V2C budget
// knob; the paper cites McMahan et al.: more participants per round can
// raise accuracy, at proportional cellular cost).
func AblationReporters(rounds int, seed uint64, counts []int) ([]Row, error) {
	var rows []Row
	for _, r := range counts {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		oc := strategy.DefaultOppConfig()
		oc.Rounds = rounds
		oc.Reporters = r
		s, err := strategy.NewOpportunistic(oc)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation B (reporters %d): %w", r, err)
		}
		rows = append(rows, rowFrom(fmt.Sprintf("R=%d", r), res))
	}
	return rows, nil
}

// AblationV2XRange sweeps the V2X radio range (the vehicle-density proxy;
// paper §5.2: OPP is "highly dependent on the density of vehicles").
func AblationV2XRange(rounds int, seed uint64, ranges []float64) ([]Row, error) {
	var rows []Row
	for _, rangeM := range ranges {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Comm.V2X.RangeM = rangeM
		oc := strategy.DefaultOppConfig()
		oc.Rounds = rounds
		s, err := strategy.NewOpportunistic(oc)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation C (range %v): %w", rangeM, err)
		}
		rows = append(rows, rowFrom(fmt.Sprintf("%.0fm", rangeM), res))
	}
	return rows, nil
}

// SkewPoint pairs BASE and OPP results under one data distribution.
type SkewPoint struct {
	Param   string  `json:"param"`
	BaseAcc float64 `json:"base_acc"`
	OppAcc  float64 `json:"opp_acc"`
}

// AblationSkew sweeps the per-vehicle class skew for both strategies
// (the paper chooses "a highly skewed distribution ... to emulate the
// real-world scenario of highly personalized data"; this sweep shows what
// that choice costs FL and how extra contributions mitigate it).
func AblationSkew(rounds int, seed uint64, parts []dataset.PartitionConfig) ([]SkewPoint, error) {
	var rows []SkewPoint
	for _, pc := range parts {
		label := pc.Scheme.String()
		if pc.Scheme == dataset.SchemeShards {
			label = fmt.Sprintf("shards=%d", pc.ShardsPerAgent)
		}

		baseCfg := core.DefaultConfig()
		baseCfg.Seed = seed
		baseCfg.Partition = pc
		fa := strategy.DefaultFedAvgConfig()
		fa.Rounds = rounds
		fs, err := strategy.NewFederatedAveraging(fa)
		if err != nil {
			return nil, err
		}
		baseRes, err := run(baseCfg, fs)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation D BASE (%s): %w", label, err)
		}

		oppCfg := core.DefaultConfig()
		oppCfg.Seed = seed
		oppCfg.Partition = pc
		oc := strategy.DefaultOppConfig()
		oc.Rounds = rounds
		os, err := strategy.NewOpportunistic(oc)
		if err != nil {
			return nil, err
		}
		oppRes, err := run(oppCfg, os)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation D OPP (%s): %w", label, err)
		}
		rows = append(rows, SkewPoint{
			Param:   label,
			BaseAcc: LateAccuracy(baseRes, 3),
			OppAcc:  LateAccuracy(oppRes, 3),
		})
	}
	return rows, nil
}

// AblationChurn sweeps driver ignition churn (paper §5.2: a longer round
// increases "the probability that a reporter vehicle is turned off by the
// driver before a round ends, effectively discarding the models collected
// by this reporter").
func AblationChurn(rounds int, seed uint64, offProbs []float64) ([]Row, error) {
	var rows []Row
	for _, p := range offProbs {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Fleet.OffWhenParkedProb = p
		oc := strategy.DefaultOppConfig()
		oc.Rounds = rounds
		s, err := strategy.NewOpportunistic(oc)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation E (off prob %v): %w", p, err)
		}
		rows = append(rows, rowFrom(fmt.Sprintf("p_off=%.1f", p), res))
	}
	return rows, nil
}

// DefaultSkewSweep is the ablation-D parameter set: pathological 1-shard
// skew, the paper's 2-shard skew, milder 5-shard, and IID.
func DefaultSkewSweep() []dataset.PartitionConfig {
	return []dataset.PartitionConfig{
		{Scheme: dataset.SchemeShards, PerAgent: 80, ShardsPerAgent: 1},
		{Scheme: dataset.SchemeShards, PerAgent: 80, ShardsPerAgent: 2},
		{Scheme: dataset.SchemeShards, PerAgent: 80, ShardsPerAgent: 5},
		{Scheme: dataset.SchemeIID, PerAgent: 80},
	}
}

// DefaultFaultSweep lists the scenarios ablation G runs: every named fault
// scenario except rsu-outage, since the paper's Figure-4 environment
// deploys no road-side units for an outage to hit.
func DefaultFaultSweep() []string {
	return []string{
		faults.ScenarioBlackout, faults.ScenarioBurstLoss,
		faults.ScenarioDegraded, faults.ScenarioChurnStorm, faults.ScenarioMixed,
	}
}

// FaultPoint is one (strategy, scenario) cell of the fault ablation.
type FaultPoint struct {
	Scenario string  `json:"scenario"`
	Strategy string  `json:"strategy"`
	FinalAcc float64 `json:"final_acc"`
	// Faults counts fault-attributed events (blackout failures, burst
	// drops, link kills, forced power-offs) recorded during the run.
	Faults float64 `json:"faults"`
	SimEnd float64 `json:"sim_end_s"`
	V2CMB  float64 `json:"v2c_mb"`
	V2XMB  float64 `json:"v2x_mb"`
}

// AblationFaults runs BASE and OPP fault-free and under every named fault
// scenario of internal/faults (the degradation axis the paper's framework
// motivates but its prototype never exercises: "communication may fail at
// any time", §3). Scenario windows are scaled to each strategy's own
// fault-free span, so the faults land inside the learning process for both
// the short BASE runs and the ~4.5x longer OPP runs.
func AblationFaults(rounds int, seed uint64, scenarios []string) ([]FaultPoint, error) {
	var points []FaultPoint
	cases := []struct {
		name string
		run  func(plan *faults.Plan) (*core.Result, error)
	}{
		{"BASE", func(plan *faults.Plan) (*core.Result, error) {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Faults = plan
			fa := strategy.DefaultFedAvgConfig()
			fa.Rounds = rounds
			s, err := strategy.NewFederatedAveraging(fa)
			if err != nil {
				return nil, err
			}
			return run(cfg, s)
		}},
		{"OPP", func(plan *faults.Plan) (*core.Result, error) {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Faults = plan
			oc := strategy.DefaultOppConfig()
			oc.Rounds = rounds
			s, err := strategy.NewOpportunistic(oc)
			if err != nil {
				return nil, err
			}
			return run(cfg, s)
		}},
	}
	for _, c := range cases {
		clean, err := c.run(nil)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation G %s fault-free: %w", c.name, err)
		}
		points = append(points, faultPoint("fault-free", c.name, clean))
		span := sim.Duration(clean.End)
		for _, sc := range scenarios {
			plan, err := faults.ScenarioPlan(sc, span)
			if err != nil {
				return nil, fmt.Errorf("repro: ablation G: %w", err)
			}
			res, err := c.run(&plan)
			if err != nil {
				return nil, fmt.Errorf("repro: ablation G %s/%s: %w", c.name, sc, err)
			}
			points = append(points, faultPoint(sc, c.name, res))
		}
	}
	return points, nil
}

func faultPoint(scenario, strategyName string, res *core.Result) FaultPoint {
	faultCount := res.Metrics.Counter(metrics.CounterFaultBlackoutFails) +
		res.Metrics.Counter(metrics.CounterFaultBurstDrops) +
		res.Metrics.Counter(metrics.CounterFaultLinkKills) +
		res.Metrics.Counter(metrics.CounterFaultForcedOff)
	return FaultPoint{
		Scenario: scenario,
		Strategy: strategyName,
		FinalAcc: LateAccuracy(res, 3),
		Faults:   faultCount,
		SimEnd:   float64(res.End),
		V2CMB:    float64(res.Comm["v2c"].BytesDelivered) / 1e6,
		V2XMB:    float64(res.Comm["v2x"].BytesDelivered) / 1e6,
	}
}

// AblationRSUCount sweeps the road-side-unit deployment density for the
// RSU-assisted strategy (an extension beyond the paper's prototype: its
// Figure 1 includes RSUs but the evaluation never exercises them). More
// RSUs mean more collection points — accuracy rises with deployment cost,
// while the metered V2C channel stays at zero.
func AblationRSUCount(rounds int, seed uint64, counts []int) ([]Row, error) {
	var rows []Row
	for _, n := range counts {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.RSUCount = n
		rc := strategy.DefaultRSUAssistedConfig()
		rc.Rounds = rounds
		s, err := strategy.NewRSUAssisted(rc)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation F (%d RSUs): %w", n, err)
		}
		rows = append(rows, rowFrom(fmt.Sprintf("RSUs=%d", n), res))
	}
	return rows, nil
}
