package strategy

import (
	"fmt"

	"roadrunner/internal/comm"
	"roadrunner/internal/sim"
)

// RSUAssistedConfig parameterizes the RSU-assisted strategy. The paper's
// Figure 1 shows road-side units as training-capable actors wired to the
// cloud and V2X-reachable by passing vehicles; this strategy is the
// natural learning scheme over them (an instance of the "possible next
// steps" the paper's conclusion invites): stationary RSUs play the OPP
// reporter role permanently, so the fleet is trained **without any
// metered V2C traffic at all** — model distribution and collection ride
// the wired backhaul, and vehicle contact is pure V2X.
type RSUAssistedConfig struct {
	// Rounds is the number of aggregation rounds.
	Rounds int `json:"rounds"`
	// RoundDuration is the collection window per round.
	RoundDuration sim.Duration `json:"round_duration_s"`
	// ServerOverhead is the fixed per-round server-side time (see
	// FedAvgConfig.ServerOverhead).
	ServerOverhead sim.Duration `json:"server_overhead_s"`
	// ExchangeTimeout bounds how long an RSU waits for a vehicle's
	// retrained model before freeing the exchange slot.
	ExchangeTimeout sim.Duration `json:"exchange_timeout_s"`
}

// DefaultRSUAssistedConfig mirrors OPP's round structure.
func DefaultRSUAssistedConfig() RSUAssistedConfig {
	return RSUAssistedConfig{
		Rounds:          75,
		RoundDuration:   200,
		ServerOverhead:  17.893,
		ExchangeTimeout: 60,
	}
}

// Validate reports whether the configuration is usable.
func (c RSUAssistedConfig) Validate() error { return c.timing().validate() }

func (c RSUAssistedConfig) timing() collectorTiming {
	return collectorTiming{
		rounds:          c.Rounds,
		roundDuration:   c.RoundDuration,
		serverOverhead:  c.ServerOverhead,
		exchangeTimeout: c.ExchangeTimeout,
	}
}

// RSUAssisted implements FL where stationary road-side units collect the
// contributions: the server distributes the global model to every RSU over
// the wired backhaul, passing vehicles retrain it via V2X exchanges, RSUs
// pre-aggregate (Federated Averaging is associative), and at round end the
// aggregates return over the wire. It is OPP's collector protocol with RSUs
// as collectors that do not retrain themselves. Requires Config.RSUCount > 0.
type RSUAssisted struct {
	collector
	cfg RSUAssistedConfig
}

var _ Strategy = (*RSUAssisted)(nil)

// NewRSUAssisted returns the RSU-assisted strategy.
func NewRSUAssisted(cfg RSUAssistedConfig) (*RSUAssisted, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// RSU results have never carried distinct_contributors; recording it
	// now would change their bytes under unchanged run keys.
	role := collectorRole{
		name:   "rsu-assisted",
		pick:   Env.RSUs,
		uplink: comm.KindWired,
	}
	return &RSUAssisted{collector: collector{role: role, timing: cfg.timing()}, cfg: cfg}, nil
}

// Name implements Strategy.
func (r *RSUAssisted) Name() string { return r.role.name }

// Config returns the strategy's configuration.
func (r *RSUAssisted) Config() RSUAssistedConfig { return r.cfg }

// Start implements Strategy.
func (r *RSUAssisted) Start(env Env) error {
	if len(env.RSUs()) == 0 {
		return fmt.Errorf("strategy: rsu-assisted: experiment has no RSUs (set Config.RSUCount)")
	}
	return r.collector.Start(env)
}
