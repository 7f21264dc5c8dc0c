// Package repro contains the paper-reproduction harness: one entry point
// per table/figure of the evaluation (§5.2), plus the ablation sweeps the
// paper motivates verbally. Each is a list of campaign.RunSpecs (Spec)
// run on the library pool (Execute), so a figure cell is the same
// content-addressed run a manifest describes. cmd/figures renders these as
// CSV and terminal charts; bench_test.go wraps them as benchmarks; the
// shape tests assert the qualitative results (who wins, by roughly what
// factor).
//
// The experiment index lives in DESIGN.md; paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/faults"
	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
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

// Spec describes one figure cell as a run spec: the paper's §5.2
// environment at seed, the strategy, and edit applied to the configuration
// (nil for none). Every figure and ablation is a list of these.
func Spec(name string, seed uint64, strat campaign.StrategySpec, edit func(*core.Config)) campaign.RunSpec {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	if edit != nil {
		edit(&cfg)
	}
	return campaign.RunSpec{Name: name, Strategy: strat, Config: cfg}
}

// Execute runs specs on the library pool (campaign.Scheduler without a
// store, one attempt each, GOMAXPROCS workers) and returns their results
// in spec order. Each run is self-contained, so a result is the same on
// one worker or many. A spec with rounds <= 0 is rejected (StrategySpec
// reads 0 as its default of 10), and the first failing spec, in spec
// order, fails the call.
func Execute(specs ...campaign.RunSpec) ([]*core.Result, error) {
	tasks := make([]campaign.Task, len(specs))
	for i, spec := range specs {
		if spec.Strategy.Rounds <= 0 {
			return nil, fmt.Errorf("repro: %s: non-positive round count %d", spec.Name, spec.Strategy.Rounds)
		}
		task, err := campaign.TaskForSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("repro: %s: %w", spec.Name, err)
		}
		tasks[i] = task
	}
	results := make([]*core.Result, len(specs))
	for i, tr := range campaign.NewScheduler(campaign.Options{MaxAttempts: 1}).Execute(tasks) {
		if tr.Err != nil {
			return nil, fmt.Errorf("repro: %s: %w", tr.Name, tr.Err)
		}
		results[i] = tr.Result
	}
	return results, nil
}

// base and opp are the two strategies of Figure 4 at the paper's settings.
func base(rounds int) campaign.StrategySpec {
	return campaign.StrategySpec{Kind: "fedavg", Rounds: rounds}
}

func opp(rounds int) campaign.StrategySpec {
	return campaign.StrategySpec{Kind: "opp", Rounds: rounds}
}

// labelled is a strategy with the label the figures print for it.
type labelled struct {
	name string
	spec campaign.StrategySpec
}

func baseAndOpp(rounds int) []labelled {
	return []labelled{{"BASE", base(rounds)}, {"OPP", opp(rounds)}}
}

// Fig4Specs are the two runs of Figure 4: BASE then OPP on the same
// environment, fleet, data distribution and V2C budget.
func Fig4Specs(rounds int, seed uint64) []campaign.RunSpec {
	return []campaign.RunSpec{
		Spec("fig4/BASE", seed, base(rounds), nil),
		Spec("fig4/OPP", seed, opp(rounds), nil),
	}
}

// Fig4 reproduces the paper's evaluation experiment: BASE (FL, 30 s rounds)
// versus OPP (200 s rounds with V2X forwarding) on the same environment,
// fleet, data distribution, and V2C budget. rounds scales the experiment
// (the paper uses 75); seed fixes all randomness.
func Fig4(rounds int, seed uint64) (*Fig4Output, error) {
	results, err := Execute(Fig4Specs(rounds, seed)...)
	if err != nil {
		return nil, err
	}
	baseRes, oppRes := results[0], results[1]
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

// rows executes a one-strategy sweep whose spec names are the parameter
// labels, and summarizes each run as a Row.
func rows(ablation string, specs []campaign.RunSpec) ([]Row, error) {
	results, err := Execute(specs...)
	if err != nil {
		return nil, fmt.Errorf("ablation %s: %w", ablation, err)
	}
	out := make([]Row, len(specs))
	for i, res := range results {
		out[i] = rowFrom(specs[i].Name, res)
	}
	return out, nil
}

// AblationRoundDuration sweeps OPP's round duration (paper §5.2: "a longer
// round duration will give more opportunities for local aggregation of
// weights ... [but] increase the duration of the whole learning process,
// and increase the probability that a reporter vehicle is turned off").
func AblationRoundDuration(rounds int, seed uint64, durations []sim.Duration) ([]Row, error) {
	specs := make([]campaign.RunSpec, len(durations))
	for i, d := range durations {
		s := opp(rounds)
		s.RoundDurationS = float64(d)
		specs[i] = Spec(fmt.Sprintf("%.0fs", float64(d)), seed, s, nil)
	}
	return rows("A", specs)
}

// AblationReporters sweeps the per-round reporter count (the V2C budget
// knob; the paper cites McMahan et al.: more participants per round can
// raise accuracy, at proportional cellular cost).
func AblationReporters(rounds int, seed uint64, counts []int) ([]Row, error) {
	specs := make([]campaign.RunSpec, len(counts))
	for i, r := range counts {
		s := opp(rounds)
		s.Reporters = r
		specs[i] = Spec(fmt.Sprintf("R=%d", r), seed, s, nil)
	}
	return rows("B", specs)
}

// AblationV2XRange sweeps the V2X radio range (the vehicle-density proxy;
// paper §5.2: OPP is "highly dependent on the density of vehicles").
func AblationV2XRange(rounds int, seed uint64, ranges []float64) ([]Row, error) {
	specs := make([]campaign.RunSpec, len(ranges))
	for i, rangeM := range ranges {
		specs[i] = Spec(fmt.Sprintf("%.0fm", rangeM), seed, opp(rounds),
			func(c *core.Config) { c.Comm.V2X.RangeM = rangeM })
	}
	return rows("C", specs)
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
	labels := make([]string, len(parts))
	var specs []campaign.RunSpec
	for i, pc := range parts {
		labels[i] = pc.Scheme.String()
		if pc.Scheme == dataset.SchemeShards {
			labels[i] = fmt.Sprintf("shards=%d", pc.ShardsPerAgent)
		}
		edit := func(c *core.Config) { c.Partition = pc }
		specs = append(specs,
			Spec(labels[i]+"/BASE", seed, base(rounds), edit),
			Spec(labels[i]+"/OPP", seed, opp(rounds), edit))
	}
	results, err := Execute(specs...)
	if err != nil {
		return nil, fmt.Errorf("ablation D: %w", err)
	}
	points := make([]SkewPoint, len(parts))
	for i, label := range labels {
		points[i] = SkewPoint{
			Param:   label,
			BaseAcc: LateAccuracy(results[2*i], 3),
			OppAcc:  LateAccuracy(results[2*i+1], 3),
		}
	}
	return points, nil
}

// AblationChurn sweeps driver ignition churn (paper §5.2: a longer round
// increases "the probability that a reporter vehicle is turned off by the
// driver before a round ends, effectively discarding the models collected
// by this reporter").
func AblationChurn(rounds int, seed uint64, offProbs []float64) ([]Row, error) {
	specs := make([]campaign.RunSpec, len(offProbs))
	for i, p := range offProbs {
		specs[i] = Spec(fmt.Sprintf("p_off=%.1f", p), seed, opp(rounds),
			func(c *core.Config) { c.Fleet.OffWhenParkedProb = p })
	}
	return rows("E", specs)
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
	strategies := baseAndOpp(rounds)
	clean := make([]campaign.RunSpec, len(strategies))
	for i, st := range strategies {
		clean[i] = Spec(st.name+"/fault-free", seed, st.spec, nil)
	}
	cleanRes, err := Execute(clean...)
	if err != nil {
		return nil, fmt.Errorf("ablation G: %w", err)
	}
	var faulted []campaign.RunSpec
	for i, st := range strategies {
		span := sim.Duration(cleanRes[i].End)
		for _, sc := range scenarios {
			plan, err := faults.ScenarioPlan(sc, span)
			if err != nil {
				return nil, fmt.Errorf("ablation G: %w", err)
			}
			faulted = append(faulted, Spec(st.name+"/"+sc, seed, st.spec,
				func(c *core.Config) { c.Faults = &plan }))
		}
	}
	faultedRes, err := Execute(faulted...)
	if err != nil {
		return nil, fmt.Errorf("ablation G: %w", err)
	}
	var points []FaultPoint
	for i, st := range strategies {
		points = append(points, faultPoint("fault-free", st.name, cleanRes[i]))
		for j, sc := range scenarios {
			points = append(points, faultPoint(sc, st.name, faultedRes[i*len(scenarios)+j]))
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
	specs := make([]campaign.RunSpec, len(counts))
	for i, n := range counts {
		specs[i] = Spec(fmt.Sprintf("RSUs=%d", n), seed, campaign.StrategySpec{Kind: "rsu", Rounds: rounds},
			func(c *core.Config) { c.RSUCount = n })
	}
	return rows("F", specs)
}
