// Package conformance is the strategy-conformance harness: it runs every
// learning strategy in internal/strategy against the named fault-scenario
// grid of internal/faults and machine-checks the invariants the framework
// promises regardless of strategy or fault plan — runs complete, the
// communication module's accounting conserves, simulated time is monotone,
// and a (config, seed, plan) triple determines a run byte for byte.
//
// The paper's framework exists to compare learning strategies under
// realistic vehicular conditions (§3–§4); this package is the executable
// definition of "a strategy behaves correctly under those conditions". A
// new strategy or a new fault type that breaks an invariant fails the
// conformance matrix test, not a downstream figure.
package conformance

import (
	"fmt"
	"math"

	"roadrunner/internal/channel"
	"roadrunner/internal/comm"
	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/faults"
	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
)

// ScenarioFaultFree names the empty fault plan in the scenario grid.
const ScenarioFaultFree = "fault-free"

// Scenarios returns the conformance grid's scenario names: the fault-free
// baseline plus every named fault scenario.
func Scenarios() []string {
	return append([]string{ScenarioFaultFree}, faults.ScenarioNames()...)
}

// Config is the conformance-scale experiment environment: a compact fleet
// on a small grid with two RSUs (so RSU-assisted strategies and RSU-outage
// scenarios are exercised), sized so a full strategy run completes in
// fractions of a host second.
func Config(seed uint64) core.Config {
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.RSUCount = 2
	cfg.Fleet.Vehicles = 16
	cfg.Fleet.Horizon = 1800
	cfg.Partition = dataset.PartitionConfig{Scheme: dataset.SchemeShards, PerAgent: 24, ShardsPerAgent: 2}
	cfg.TestSamples = 120
	return cfg
}

// ScenarioHorizon is the reference duration fault-scenario windows are
// scaled to. It is deliberately shorter than the trace horizon: the
// round-based strategies finish their conformance-scale runs within a few
// hundred simulated seconds, and windows must land inside the part of the
// run where traffic actually flows to exercise anything.
const ScenarioHorizon sim.Duration = 600

// Case is one strategy under conformance test. New builds a fresh strategy
// instance per run — strategies are stateful, so instances must never be
// shared between runs.
type Case struct {
	Name string
	New  func() (strategy.Strategy, error)
}

// Cases returns every strategy in the framework, configured at conformance
// scale (few rounds, windows that fit the Config horizon).
func Cases() []Case {
	return []Case{
		{Name: "centralized", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultCentralizedConfig()
			c.Rounds = 3
			c.RoundDuration = 150
			c.UploadCheckInterval = 45
			return strategy.NewCentralized(c)
		}},
		{Name: "fedavg", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultFedAvgConfig()
			c.Rounds = 10
			c.VehiclesPerRound = 3
			return strategy.NewFederatedAveraging(c)
		}},
		{Name: "opportunistic", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultOppConfig()
			c.Rounds = 4
			c.Reporters = 3
			c.RoundDuration = 120
			c.ExchangeTimeout = 45
			return strategy.NewOpportunistic(c)
		}},
		{Name: "gossip", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultGossipConfig()
			c.Duration = 1500
			c.EvalInterval = 300
			c.EvalSample = 4
			return strategy.NewGossip(c)
		}},
		{Name: "hybrid", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultHybridConfig()
			c.Gossip.Duration = 1500
			c.Gossip.EvalInterval = 300
			c.Gossip.EvalSample = 4
			c.SyncInterval = 400
			c.SyncVehicles = 3
			return strategy.NewHybrid(c)
		}},
		{Name: "rsu", New: func() (strategy.Strategy, error) {
			c := strategy.DefaultRSUAssistedConfig()
			c.Rounds = 3
			c.RoundDuration = 120
			c.ExchangeTimeout = 45
			return strategy.NewRSUAssisted(c)
		}},
	}
}

// Run executes one cell of the conformance matrix: the cased strategy on
// the conformance Config under the named scenario's fault plan.
func Run(c Case, scenario string, seed uint64) (*core.Result, error) {
	cfg := Config(seed)
	if scenario != ScenarioFaultFree {
		plan, err := faults.ScenarioPlan(scenario, ScenarioHorizon)
		if err != nil {
			return nil, err
		}
		cfg.Faults = &plan
	}
	strat, err := c.New()
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", c.Name, err)
	}
	exp, err := core.New(cfg, strat)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s/%s: %w", c.Name, scenario, err)
	}
	res, err := exp.Run()
	if err != nil {
		return nil, fmt.Errorf("conformance: %s/%s: %w", c.Name, scenario, err)
	}
	return res, nil
}

// ChannelModel is one cell of the channel-model conformance axis: a named
// internal/channel configuration. A nil Config is the analytic default
// (the original code path, not even a constructed model).
type ChannelModel struct {
	Name   string
	Config *channel.Config
}

// ChannelModels returns the channel-model axis of the conformance matrix:
// the analytic baseline, the two stochastic radio stacks, and a
// data-driven oracle with a static inline table (so the axis needs no
// fitted file and stays self-contained). Every strategy must uphold the
// framework invariants — and same-seed byte-identity — under every model.
func ChannelModels() []ChannelModel {
	inf := math.Inf(1)
	wide := func(k channel.Kind, kbps, lat, drop float64) channel.Bin {
		// One all-covering box per kind (DistLo -1 also catches links
		// without positions).
		return channel.Bin{
			Kind: k, DistLo: -1, DistHi: inf, SizeLo: 0, SizeHi: inf,
			LoadLo: 0, LoadHi: inf, KBps: kbps, LatencyS: lat, DropProb: drop, N: 1,
		}
	}
	return []ChannelModel{
		{Name: channel.ModelAnalytic, Config: nil},
		{Name: channel.ModelRadio, Config: &channel.Config{Model: channel.ModelRadio}},
		{Name: channel.ModelRadioQueued, Config: &channel.Config{Model: channel.ModelRadioQueued}},
		{Name: channel.ModelOracle, Config: &channel.Config{
			Model: channel.ModelOracle,
			Oracle: &channel.OracleConfig{Table: []channel.Bin{
				wide(channel.KindV2C, 1500, 0.07, 0.02),
				wide(channel.KindV2X, 2500, 0.03, 0.05),
				wide(channel.KindWired, 100000, 0.005, 0),
			}},
		}},
	}
}

// RunChannel executes one cell of the channel axis: the cased strategy
// under the named fault scenario with the given channel model.
func RunChannel(c Case, m ChannelModel, scenario string, seed uint64) (*core.Result, error) {
	cfg := Config(seed)
	cfg.Comm.Channel = m.Config
	if scenario != ScenarioFaultFree {
		plan, err := faults.ScenarioPlan(scenario, ScenarioHorizon)
		if err != nil {
			return nil, err
		}
		cfg.Faults = &plan
	}
	strat, err := c.New()
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", c.Name, err)
	}
	exp, err := core.New(cfg, strat)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s/%s/%s: %w", c.Name, scenario, m.Name, err)
	}
	res, err := exp.Run()
	if err != nil {
		return nil, fmt.Errorf("conformance: %s/%s/%s: %w", c.Name, scenario, m.Name, err)
	}
	return res, nil
}

// CheckInvariants machine-checks the framework invariants one run must
// uphold regardless of strategy and fault plan:
//
//  1. the run produced a result with a non-negative end instant and at
//     least one processed event;
//  2. comm.Stats accounting conserves per channel kind — every sent
//     message is eventually delivered or failed, and delivered bytes never
//     exceed attempted bytes;
//  3. every metric series is monotone in simulated time and bounded by the
//     run's end instant.
func CheckInvariants(res *core.Result) error {
	if res == nil {
		return fmt.Errorf("conformance: nil result")
	}
	if res.End < 0 {
		return fmt.Errorf("conformance: negative end instant %v", float64(res.End))
	}
	if res.EventsProcessed == 0 {
		return fmt.Errorf("conformance: no events processed")
	}
	for _, k := range comm.Kinds() {
		s, ok := res.Comm[k.String()]
		if !ok {
			return fmt.Errorf("conformance: missing %v comm stats", k)
		}
		if s.MessagesSent < 0 || s.MessagesDelivered < 0 || s.MessagesFailed < 0 {
			return fmt.Errorf("conformance: %v: negative message count %+v", k, s)
		}
		if s.MessagesSent != s.MessagesDelivered+s.MessagesFailed {
			return fmt.Errorf("conformance: %v: sent %d != delivered %d + failed %d",
				k, s.MessagesSent, s.MessagesDelivered, s.MessagesFailed)
		}
		if s.BytesDelivered > s.BytesAttempted {
			return fmt.Errorf("conformance: %v: delivered bytes %d exceed attempted %d",
				k, s.BytesDelivered, s.BytesAttempted)
		}
		if s.BytesDelivered < 0 || s.BytesAttempted < 0 {
			return fmt.Errorf("conformance: %v: negative byte count %+v", k, s)
		}
	}
	if res.Metrics == nil {
		return fmt.Errorf("conformance: nil metrics recorder")
	}
	for _, name := range res.Metrics.SeriesNames() {
		s := res.Metrics.Series(name)
		for i, p := range s.Points {
			if !p.T.IsValid() || p.T < 0 {
				return fmt.Errorf("conformance: series %q point %d: invalid time %v", name, i, float64(p.T))
			}
			if p.T > res.End {
				return fmt.Errorf("conformance: series %q point %d: time %v after run end %v",
					name, i, float64(p.T), float64(res.End))
			}
			if i > 0 && p.T < s.Points[i-1].T {
				return fmt.Errorf("conformance: series %q point %d: time %v before predecessor %v",
					name, i, float64(p.T), float64(s.Points[i-1].T))
			}
		}
	}
	return nil
}

// FaultCounters sums the run's fault-attributed failure counters, for
// asserting that a scenario actually injected something.
func FaultCounters(res *core.Result) float64 {
	return res.Metrics.Counter(metrics.CounterFaultBlackoutFails) +
		res.Metrics.Counter(metrics.CounterFaultBurstDrops) +
		res.Metrics.Counter(metrics.CounterFaultLinkKills) +
		res.Metrics.Counter(metrics.CounterFaultForcedOff)
}
