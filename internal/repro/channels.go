package repro

import (
	"bytes"
	"fmt"

	"roadrunner/internal/campaign"
	"roadrunner/internal/channel"
	"roadrunner/internal/core"
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
	strategies := baseAndOpp(rounds)
	models := DefaultChannelSweep()
	onModel := func(ch *channel.Config, record bool) func(*core.Config) {
		return func(c *core.Config) {
			c.Comm.Channel = ch
			c.ChannelRecord = record
		}
	}

	// Pass 1: the analytic baseline and the two synthetic radio stacks; the
	// radio runs double as the oracle's measurement campaign (BASE supplies
	// V2C samples, OPP adds V2X).
	var synthetic []campaign.RunSpec
	for _, st := range strategies {
		synthetic = append(synthetic,
			Spec(st.name+"/"+channel.ModelAnalytic, seed, st.spec, nil),
			Spec(st.name+"/"+channel.ModelRadio, seed, st.spec,
				onModel(&channel.Config{Model: channel.ModelRadio}, true)),
			Spec(st.name+"/"+channel.ModelRadioQueued, seed, st.spec,
				onModel(&channel.Config{Model: channel.ModelRadioQueued}, false)))
	}
	syntheticRes, err := Execute(synthetic...)
	if err != nil {
		return nil, fmt.Errorf("ablation H: %w", err)
	}
	var samples []channel.Sample
	for i, st := range strategies {
		radio := syntheticRes[3*i+1]
		if radio.ChannelLog == nil || radio.ChannelLog.Len() == 0 {
			return nil, fmt.Errorf("repro: ablation H %s/radio recorded no channel samples", st.name)
		}
		samples = append(samples, radio.ChannelLog.Samples()...)
	}

	// Fit the oracle, round-tripping both canonical CSV forms so the
	// ablation exercises the exact record → fit → replay pipeline a user
	// runs through files and cmd/chanfit.
	table, err := fitThroughCSV(samples)
	if err != nil {
		return nil, fmt.Errorf("repro: ablation H oracle fit: %w", err)
	}

	// Pass 2: replay the fitted table under both strategies.
	oracle := make([]campaign.RunSpec, len(strategies))
	for i, st := range strategies {
		oracle[i] = Spec(st.name+"/"+channel.ModelOracle, seed, st.spec, onModel(&channel.Config{
			Model:  channel.ModelOracle,
			Oracle: &channel.OracleConfig{Table: table.Bins},
		}, false))
	}
	oracleRes, err := Execute(oracle...)
	if err != nil {
		return nil, fmt.Errorf("ablation H: %w", err)
	}

	var points []ChannelPoint
	for i, st := range strategies {
		perModel := []*core.Result{syntheticRes[3*i], syntheticRes[3*i+1], syntheticRes[3*i+2], oracleRes[i]}
		for j, res := range perModel {
			points = append(points, ChannelPoint{
				Model:    models[j],
				Strategy: st.name,
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
