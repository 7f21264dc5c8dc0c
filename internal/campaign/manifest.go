// Package campaign is Roadrunner's experiment-orchestration layer: it
// promotes the simulator from a per-process CLI into a service substrate,
// the move cloud-hosted V&V frameworks for vehicular systems make when
// single-shot simulation becomes the iteration bottleneck (cf. Samak et
// al. and DRIVE's batched-scenario oracle in PAPERS.md), and the paper's
// own stated future work — "increasing the parallelism of the simulation
// to speed up learning strategy development iterations".
//
// A Campaign starts as a declarative Manifest: the cross-product of
// learning strategies × seeds × fault scenarios × configuration overrides,
// expanded into individual RunSpecs. Because a (config, seed, faults.Plan)
// triple fully determines a run byte-for-byte (the reproducibility
// contract of internal/core, extended to faults by internal/faults), every
// RunSpec is content-addressable: its Key is a hash of the canonical spec
// encoding, and a durable Store maps keys to canonical results. The
// Scheduler executes specs on a worker pool with per-run panic isolation
// and retry-with-backoff, skipping execution entirely on store hits; the
// durable Queue and the campaign journal make a killed campaign resumable
// to byte-identical final output. internal/cluster's Coordinator drives
// campaigns over these pieces and cmd/roadrunnerd serves it over HTTP.
package campaign

import (
	"fmt"

	"roadrunner/internal/core"
	"roadrunner/internal/faults"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
)

// ScenarioFaultFree names the empty fault plan in manifest scenario lists.
const ScenarioFaultFree = "fault-free"

// DefaultScenarioSpan is the reference duration fault-scenario windows are
// scaled to when a manifest does not set one, matching the conformance
// harness's choice: long enough to land inside the learning process at
// laptop scale, short enough that windows overlap actual traffic.
const DefaultScenarioSpan sim.Duration = 600

// Environment presets a manifest can base its runs on.
const (
	// EnvDefault is the paper's §5.2 Gothenburg-scale environment.
	EnvDefault = "default"
	// EnvSmall is the laptop-scale environment of core.SmallConfig.
	EnvSmall = "small"
	// EnvTiny is a conformance-scale environment (16 vehicles, short
	// horizon, 2 RSUs) for smoke tests and CI campaigns.
	EnvTiny = "tiny"
)

// StrategySpec selects a learning strategy declaratively, so it can travel
// in manifests over HTTP and participate in run-key hashes. Kinds: fedavg
// (alias base), opp (alias opportunistic), gossip, centralized, hybrid, rsu
// (alias rsu-assisted). Rounds parameterizes the round-based strategies;
// duration-based ones (gossip, hybrid) ignore it. RoundDurationS and
// Reporters override OPP's round timer and reporters per round (ablations
// A and B); zero keeps the paper's value, and they are omitted from the
// encoding when unset, so specs that do not set them keep their run keys.
type StrategySpec struct {
	Kind           string  `json:"kind"`
	Rounds         int     `json:"rounds,omitempty"`
	RoundDurationS float64 `json:"round_duration_s,omitempty"`
	Reporters      int     `json:"reporters,omitempty"`
}

// Validate reports whether the spec names a known strategy with usable
// parameters.
func (s StrategySpec) Validate() error {
	if _, err := s.Build(); err != nil {
		return err
	}
	return nil
}

// Build constructs a fresh strategy instance. Strategies are stateful, so
// every run needs its own instance; a spec is the factory.
func (s StrategySpec) Build() (strategy.Strategy, error) {
	rounds := s.Rounds
	if rounds < 0 {
		return nil, fmt.Errorf("campaign: strategy %q: negative rounds %d", s.Kind, rounds)
	}
	if rounds == 0 {
		rounds = 10
	}
	if !(s.RoundDurationS >= 0) || s.Reporters < 0 {
		return nil, fmt.Errorf("campaign: strategy %q: negative round_duration_s %v or reporters %d",
			s.Kind, s.RoundDurationS, s.Reporters)
	}
	opp := s.Kind == "opp" || s.Kind == "opportunistic"
	if !opp && (s.RoundDurationS != 0 || s.Reporters != 0) {
		return nil, fmt.Errorf("campaign: strategy %q: round_duration_s and reporters apply only to opp", s.Kind)
	}
	switch s.Kind {
	case "fedavg", "base":
		c := strategy.DefaultFedAvgConfig()
		c.Rounds = rounds
		return strategy.NewFederatedAveraging(c)
	case "opp", "opportunistic":
		c := strategy.DefaultOppConfig()
		c.Rounds = rounds
		if s.RoundDurationS > 0 {
			c.RoundDuration = sim.Duration(s.RoundDurationS)
		}
		if s.Reporters > 0 {
			c.Reporters = s.Reporters
		}
		return strategy.NewOpportunistic(c)
	case "gossip":
		return strategy.NewGossip(strategy.DefaultGossipConfig())
	case "centralized":
		c := strategy.DefaultCentralizedConfig()
		c.Rounds = rounds
		return strategy.NewCentralized(c)
	case "hybrid":
		return strategy.NewHybrid(strategy.DefaultHybridConfig())
	case "rsu", "rsu-assisted":
		c := strategy.DefaultRSUAssistedConfig()
		c.Rounds = rounds
		return strategy.NewRSUAssisted(c)
	default:
		return nil, fmt.Errorf("campaign: unknown strategy kind %q", s.Kind)
	}
}

// Override is one named point of a configuration sweep: the fields set
// here replace the environment preset's values. Pointers distinguish "not
// swept" from "set to the zero value".
type Override struct {
	Name              string   `json:"name"`
	Vehicles          *int     `json:"vehicles,omitempty"`
	RSUCount          *int     `json:"rsu_count,omitempty"`
	V2XRangeM         *float64 `json:"v2x_range_m,omitempty"`
	OffWhenParkedProb *float64 `json:"off_when_parked_prob,omitempty"`
	TickIntervalS     *float64 `json:"tick_interval_s,omitempty"`
	HorizonS          *float64 `json:"horizon_s,omitempty"`
	TestSamples       *int     `json:"test_samples,omitempty"`
}

func (o Override) apply(cfg *core.Config) {
	if o.Vehicles != nil {
		cfg.Fleet.Vehicles = *o.Vehicles
	}
	if o.RSUCount != nil {
		cfg.RSUCount = *o.RSUCount
	}
	if o.V2XRangeM != nil {
		cfg.Comm.V2X.RangeM = *o.V2XRangeM
	}
	if o.OffWhenParkedProb != nil {
		cfg.Fleet.OffWhenParkedProb = *o.OffWhenParkedProb
	}
	if o.TickIntervalS != nil {
		cfg.TickInterval = sim.Duration(*o.TickIntervalS)
	}
	if o.HorizonS != nil {
		cfg.Horizon = sim.Duration(*o.HorizonS)
	}
	if o.TestSamples != nil {
		cfg.TestSamples = *o.TestSamples
	}
}

// Manifest declares a campaign: every combination of Strategies × Seeds ×
// Scenarios × Overrides becomes one run. The zero values keep manifests
// small: Env defaults to the paper-scale environment, Scenarios to the
// fault-free run, Overrides to the preset as-is.
type Manifest struct {
	// Name labels the campaign in journals, logs, and the API.
	Name string `json:"name"`
	// Env picks the base environment preset: default, small, or tiny.
	Env string `json:"env,omitempty"`
	// Rounds is the default round count for round-based strategies whose
	// spec leaves Rounds unset.
	Rounds int `json:"rounds,omitempty"`
	// Strategies lists the learning strategies to run.
	Strategies []StrategySpec `json:"strategies"`
	// Seeds lists the experiment seeds; every strategy runs every seed.
	Seeds []uint64 `json:"seeds"`
	// Scenarios names fault scenarios from internal/faults ("fault-free"
	// plus the named grid). Empty means fault-free only.
	Scenarios []string `json:"scenarios,omitempty"`
	// ScenarioSpanS scales scenario fault windows to a run duration in
	// simulated seconds (0 = DefaultScenarioSpan).
	ScenarioSpanS float64 `json:"scenario_span_s,omitempty"`
	// Overrides lists configuration sweep points. Empty means one run per
	// (strategy, seed, scenario) on the unmodified preset.
	Overrides []Override `json:"overrides,omitempty"`
}

// baseConfig resolves the environment preset.
func (m Manifest) baseConfig() (core.Config, error) {
	switch m.Env {
	case "", EnvDefault:
		return core.DefaultConfig(), nil
	case EnvSmall:
		return core.SmallConfig(), nil
	case EnvTiny:
		return TinyConfig(), nil
	default:
		return core.Config{}, fmt.Errorf("campaign: unknown env %q", m.Env)
	}
}

// TinyConfig is the conformance-scale environment preset: a compact fleet
// on a short horizon with two RSUs, sized so a full strategy run completes
// in fractions of a host second. CI smoke campaigns and the e2e tests use
// it via EnvTiny.
func TinyConfig() core.Config {
	cfg := core.SmallConfig()
	cfg.RSUCount = 2
	cfg.Fleet.Vehicles = 16
	cfg.Fleet.Horizon = 1800
	cfg.Partition.PerAgent = 24
	cfg.TestSamples = 120
	return cfg
}

// Validate reports whether the manifest can be expanded.
func (m Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("campaign: manifest needs a name")
	}
	if len(m.Strategies) == 0 {
		return fmt.Errorf("campaign: manifest %q lists no strategies", m.Name)
	}
	if len(m.Seeds) == 0 {
		return fmt.Errorf("campaign: manifest %q lists no seeds", m.Name)
	}
	if m.Rounds < 0 {
		return fmt.Errorf("campaign: manifest %q: negative rounds %d", m.Name, m.Rounds)
	}
	if m.ScenarioSpanS < 0 {
		return fmt.Errorf("campaign: manifest %q: negative scenario span %v", m.Name, m.ScenarioSpanS)
	}
	base, err := m.baseConfig()
	if err != nil {
		return err
	}
	for _, s := range m.Strategies {
		spec := s
		if spec.Rounds == 0 {
			spec.Rounds = m.Rounds
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	for _, sc := range m.scenarios() {
		if sc == ScenarioFaultFree {
			continue
		}
		if _, err := faults.ScenarioPlan(sc, m.scenarioSpan()); err != nil {
			return err
		}
	}
	for i, o := range m.Overrides {
		if o.Name == "" {
			return fmt.Errorf("campaign: manifest %q: override %d needs a name", m.Name, i)
		}
	}
	// An RSU-assisted run on an environment without RSUs could only fail
	// on a worker; reject the manifest up front instead.
	for _, s := range m.Strategies {
		if s.Kind != "rsu" && s.Kind != "rsu-assisted" {
			continue
		}
		for _, o := range m.overrides() {
			cfg := base
			o.apply(&cfg)
			if cfg.RSUCount <= 0 {
				return fmt.Errorf("campaign: manifest %q: strategy %q needs RSUs, but env %q with override %q has none",
					m.Name, s.Kind, m.Env, o.Name)
			}
		}
	}
	return nil
}

// overrides returns the sweep points, the unmodified preset if none.
func (m Manifest) overrides() []Override {
	if len(m.Overrides) == 0 {
		return []Override{{Name: "base"}}
	}
	return m.Overrides
}

func (m Manifest) scenarios() []string {
	if len(m.Scenarios) == 0 {
		return []string{ScenarioFaultFree}
	}
	return m.Scenarios
}

func (m Manifest) scenarioSpan() sim.Duration {
	if m.ScenarioSpanS <= 0 {
		return DefaultScenarioSpan
	}
	return sim.Duration(m.ScenarioSpanS)
}

// Expand materializes the manifest's cross-product into run specs, in the
// deterministic order strategy → seed → scenario → override. Expansion is
// pure: expanding the same manifest twice yields identical specs and
// therefore identical run keys.
func (m Manifest) Expand() ([]RunSpec, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	base, err := m.baseConfig()
	if err != nil {
		return nil, err
	}
	var specs []RunSpec
	for _, strat := range m.Strategies {
		spec := strat
		if spec.Rounds == 0 {
			spec.Rounds = m.Rounds
		}
		for _, seed := range m.Seeds {
			for _, sc := range m.scenarios() {
				for _, o := range m.overrides() {
					cfg := base
					o.apply(&cfg)
					cfg.Seed = seed
					if sc != ScenarioFaultFree {
						plan, err := faults.ScenarioPlan(sc, m.scenarioSpan())
						if err != nil {
							return nil, err
						}
						cfg.Faults = &plan
					}
					specs = append(specs, RunSpec{
						Name:     fmt.Sprintf("%s/s%d/%s/%s", spec.Kind, seed, sc, o.Name),
						Strategy: spec,
						Config:   cfg,
					})
				}
			}
		}
	}
	return specs, nil
}
