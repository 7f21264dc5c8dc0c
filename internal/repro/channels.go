package repro

import (
	"bytes"
	"fmt"

	"roadrunner/internal/channel"
	"roadrunner/internal/core"
	"roadrunner/internal/strategy"
)

// ChannelPoint is one (strategy, channel-model) cell of ablation H.
type ChannelPoint struct {
	Model    string  `json:"model"`
	Strategy string  `json:"strategy"`
	FinalAcc float64 `json:"final_acc"`
	SimEnd   float64 `json:"sim_end_s"`
	V2CMB    float64 `json:"v2c_mb"`
	V2XMB    float64 `json:"v2x_mb"`
	// FailedMsgs counts failed transfers over the two radio kinds — the
	// visible cost of outage, fading, and fitted loss fractions.
	FailedMsgs float64 `json:"failed_msgs"`
}

// DefaultChannelSweep names ablation H's model axis in run order.
func DefaultChannelSweep() []string {
	return []string{channel.ModelAnalytic, channel.ModelRadio, channel.ModelRadioQueued, channel.ModelOracle}
}

// AblationChannels runs BASE and OPP under every channel model (ablation H:
// the channel-realism axis the paper's flat transfer-time model cannot
// express). The oracle column exercises the DRIVE-style pipeline end to
// end: the radio runs record channel traces, the traces round-trip through
// the canonical chantrace CSV, the fitter bins them into an indicator
// table, the table round-trips through the chantable CSV, and the oracle
// runs replay it. Everything derives from (rounds, seed), so the whole
// sweep is deterministic.
func AblationChannels(rounds int, seed uint64) ([]ChannelPoint, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("repro: non-positive round count %d", rounds)
	}
	cases := []struct {
		name string
		make func() (strategy.Strategy, error)
	}{
		{"BASE", func() (strategy.Strategy, error) {
			fa := strategy.DefaultFedAvgConfig()
			fa.Rounds = rounds
			return strategy.NewFederatedAveraging(fa)
		}},
		{"OPP", func() (strategy.Strategy, error) {
			oc := strategy.DefaultOppConfig()
			oc.Rounds = rounds
			return strategy.NewOpportunistic(oc)
		}},
	}
	runWith := func(mk func() (strategy.Strategy, error), ch *channel.Config, record bool) (*core.Result, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Comm.Channel = ch
		cfg.ChannelRecord = record
		s, err := mk()
		if err != nil {
			return nil, err
		}
		return run(cfg, s)
	}

	radio := &channel.Config{Model: channel.ModelRadio}
	radioQueued := &channel.Config{Model: channel.ModelRadioQueued}

	// Pass 1: the analytic baseline and the two synthetic radio stacks; the
	// radio runs double as the oracle's measurement campaign (BASE supplies
	// V2C samples, OPP adds V2X).
	results := make(map[string]map[string]*core.Result, len(cases))
	var samples []channel.Sample
	for _, c := range cases {
		results[c.name] = make(map[string]*core.Result, 4)
		analytic, err := runWith(c.make, nil, false)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation H %s/analytic: %w", c.name, err)
		}
		results[c.name][channel.ModelAnalytic] = analytic
		radioRes, err := runWith(c.make, radio, true)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation H %s/radio: %w", c.name, err)
		}
		results[c.name][channel.ModelRadio] = radioRes
		if radioRes.ChannelLog == nil || radioRes.ChannelLog.Len() == 0 {
			return nil, fmt.Errorf("repro: ablation H %s/radio recorded no channel samples", c.name)
		}
		samples = append(samples, radioRes.ChannelLog.Samples()...)
		rq, err := runWith(c.make, radioQueued, false)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation H %s/radio+queued: %w", c.name, err)
		}
		results[c.name][channel.ModelRadioQueued] = rq
	}

	// Fit the oracle, round-tripping both canonical CSV forms so the
	// ablation exercises the exact record → fit → replay pipeline a user
	// runs through files and cmd/chanfit.
	table, err := fitThroughCSV(samples)
	if err != nil {
		return nil, fmt.Errorf("repro: ablation H oracle fit: %w", err)
	}
	oracle := &channel.Config{
		Model:  channel.ModelOracle,
		Oracle: &channel.OracleConfig{Table: table.Bins},
	}

	// Pass 2: replay the fitted table under both strategies.
	for _, c := range cases {
		res, err := runWith(c.make, oracle, false)
		if err != nil {
			return nil, fmt.Errorf("repro: ablation H %s/oracle: %w", c.name, err)
		}
		results[c.name][channel.ModelOracle] = res
	}

	var points []ChannelPoint
	for _, c := range cases {
		for _, model := range DefaultChannelSweep() {
			res := results[c.name][model]
			points = append(points, ChannelPoint{
				Model:    model,
				Strategy: c.name,
				FinalAcc: LateAccuracy(res, 3),
				SimEnd:   float64(res.End),
				V2CMB:    float64(res.Comm["v2c"].BytesDelivered) / 1e6,
				V2XMB:    float64(res.Comm["v2x"].BytesDelivered) / 1e6,
				FailedMsgs: float64(res.Comm["v2c"].MessagesFailed) +
					float64(res.Comm["v2x"].MessagesFailed),
			})
		}
	}
	return points, nil
}

// fitThroughCSV serializes samples as a chantrace CSV, re-parses it, fits
// the indicator table, serializes that as a chantable CSV, and re-parses it
// — proving in-process what the file-based record/fit/replay workflow does.
func fitThroughCSV(samples []channel.Sample) (*channel.Table, error) {
	var traceBuf bytes.Buffer
	if err := channel.WriteTrace(&traceBuf, samples); err != nil {
		return nil, err
	}
	parsed, err := channel.ParseTrace(&traceBuf)
	if err != nil {
		return nil, err
	}
	table, err := channel.Fit(parsed, channel.DefaultFitConfig())
	if err != nil {
		return nil, err
	}
	var tableBuf bytes.Buffer
	if err := channel.WriteTable(&tableBuf, table); err != nil {
		return nil, err
	}
	return channel.ParseTable(&tableBuf)
}
