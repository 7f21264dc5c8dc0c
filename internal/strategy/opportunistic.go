package strategy

import (
	"fmt"

	"roadrunner/internal/comm"
	"roadrunner/internal/sim"
)

// OppConfig parameterizes the paper's OPP strategy (§5.2): FL extended with
// opportunistic V2X forwarding. The default mirrors the evaluation: the
// same V2C budget as BASE (5 reporters x 75 rounds) but 200 s rounds that
// give reporters time to collect contributions from encountered vehicles.
type OppConfig struct {
	// Rounds is the number of rounds (the fixed V2C budget).
	Rounds int `json:"rounds"`
	// Reporters is the number of reporter vehicles contacted per round
	// over V2C (R in the paper; each V2C connection is "spent" on one).
	Reporters int `json:"reporters"`
	// RoundDuration is the round timer (200 s in the evaluation, long
	// enough for V2X exchanges to happen).
	RoundDuration sim.Duration `json:"round_duration_s"`
	// ServerOverhead is the fixed per-round server-side time; see
	// FedAvgConfig.ServerOverhead for the calibration.
	ServerOverhead sim.Duration `json:"server_overhead_s"`
	// ExchangeTimeout bounds how long a reporter waits for a non-reporter
	// to return a retrained model before freeing the exchange slot.
	ExchangeTimeout sim.Duration `json:"exchange_timeout_s"`
}

// DefaultOppConfig is the paper's OPP configuration.
func DefaultOppConfig() OppConfig {
	return OppConfig{
		Rounds:          75,
		Reporters:       5,
		RoundDuration:   200,
		ServerOverhead:  17.893,
		ExchangeTimeout: 60,
	}
}

// Validate reports whether the configuration is usable.
func (c OppConfig) Validate() error {
	if c.Reporters <= 0 {
		return fmt.Errorf("strategy: non-positive reporter count %d", c.Reporters)
	}
	return c.timing().validate()
}

func (c OppConfig) timing() collectorTiming {
	return collectorTiming{
		rounds:          c.Rounds,
		roundDuration:   c.RoundDuration,
		serverOverhead:  c.ServerOverhead,
		exchangeTimeout: c.ExchangeTimeout,
	}
}

// Opportunistic implements the paper's OPP strategy. Because Federated
// Averaging is associative (see ml.FedAvg), each reporter plays the role of
// a cloud server for the vehicles in its vicinity: it forwards the global
// model w over V2X, collects retrained models, and pre-aggregates them with
// its own before uploading a single model (plus the summed data amount)
// over V2C — multiplying model contributions without additional cellular
// connections. The reporters run the shared collector protocol.
type Opportunistic struct {
	collector
	cfg OppConfig
}

var _ Strategy = (*Opportunistic)(nil)

// NewOpportunistic returns the OPP strategy.
func NewOpportunistic(cfg OppConfig) (*Opportunistic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	role := collectorRole{
		name:         "opportunistic",
		pick:         func(env Env) []sim.AgentID { return pickOnVehicles(env, cfg.Reporters) },
		uplink:       comm.KindV2C,
		retrainFirst: true,
		provenance:   true,
	}
	return &Opportunistic{collector: collector{role: role, timing: cfg.timing()}, cfg: cfg}, nil
}

// Name implements Strategy.
func (o *Opportunistic) Name() string { return o.role.name }

// Config returns the strategy's configuration.
func (o *Opportunistic) Config() OppConfig { return o.cfg }
