package conformance

import (
	"bytes"
	"testing"

	"roadrunner/internal/channel"
	"roadrunner/internal/core"
	"roadrunner/internal/faults"
	"roadrunner/internal/sim"
)

// runChannelCell executes one (strategy, channel-model) cell twice with the
// same seed, asserting the same contract as runCell: completion, framework
// invariants, and same-seed byte-identity.
func runChannelCell(t *testing.T, c Case, m ChannelModel) []byte {
	t.Helper()
	canonical := func(label string) []byte {
		res, err := RunChannel(c, m, ScenarioFaultFree, matrixSeed)
		if err != nil {
			t.Fatalf("%s/%s%s: %v", c.Name, m.Name, label, err)
		}
		if err := CheckInvariants(res); err != nil {
			t.Fatalf("%s/%s%s: %v", c.Name, m.Name, label, err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatalf("%s/%s%s: canonical encode: %v", c.Name, m.Name, label, err)
		}
		return b
	}
	a := canonical("")
	if b := canonical(" (repeat)"); !bytes.Equal(a, b) {
		t.Fatalf("%s/%s: same-seed runs are not byte-identical", c.Name, m.Name)
	}
	return a
}

// channelCases is the strategy subset the channel axis runs against: the
// paper's two headline strategies plus the pure-V2X gossip strategy, so the
// axis exercises V2C-heavy, mixed, and V2X-only traffic shapes.
func channelCases(t *testing.T) []Case {
	t.Helper()
	var out []Case
	for _, c := range Cases() {
		switch c.Name {
		case "fedavg", "opportunistic", "gossip":
			out = append(out, c)
		}
	}
	if len(out) != 3 {
		t.Fatalf("channel axis found %d of its 3 strategies", len(out))
	}
	return out
}

// TestChannelModelMatrix runs the strategy x channel-model grid: every cell
// completes, upholds the invariants, reproduces byte-identically at the
// same seed — and every non-analytic model observably perturbs the run
// relative to the analytic baseline (a model that changes nothing is
// mis-wired, not conservative).
func TestChannelModelMatrix(t *testing.T) {
	models := ChannelModels()
	if len(models) < 4 {
		t.Fatalf("channel axis has %d models, want >= 4", len(models))
	}
	for _, c := range channelCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var baseline []byte
			for _, m := range models {
				m := m
				t.Run(m.Name, func(t *testing.T) {
					got := runChannelCell(t, c, m)
					if m.Config == nil {
						baseline = got
						return
					}
					if baseline == nil {
						t.Fatal("analytic baseline must run first in the model list")
					}
					if bytes.Equal(got, baseline) {
						t.Errorf("%s/%s: run is byte-identical to the analytic baseline; model had no effect", c.Name, m.Name)
					}
				})
			}
		})
	}
}

// TestWorldCacheHitMatchesColdBuild is the metamorphic cell for the world
// slot (core/world.go): in every strategy × channel-model cell, a run that
// attaches to the retained world records the bytes of the run that built
// it. Each cell first evicts the slot with a run at another seed, and the
// slot's counters show the cold run missed and the second run hit, so the
// comparison cannot pass with both runs on the same side. It is not
// parallel: the counters are process-wide.
func TestWorldCacheHitMatchesColdBuild(t *testing.T) {
	canonical := func(c Case, m ChannelModel, seed uint64) []byte {
		t.Helper()
		res, err := RunChannel(c, m, ScenarioFaultFree, seed)
		if err != nil {
			t.Fatalf("%s/%s seed %d: %v", c.Name, m.Name, seed, err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatalf("%s/%s seed %d: canonical encode: %v", c.Name, m.Name, seed, err)
		}
		return b
	}
	for _, c := range Cases() {
		for _, m := range ChannelModels() {
			canonical(c, m, matrixSeed+1)
			before := core.WorldCacheStats()
			cold := canonical(c, m, matrixSeed)
			mid := core.WorldCacheStats()
			warm := canonical(c, m, matrixSeed)
			after := core.WorldCacheStats()
			if h, miss := mid.Hits-before.Hits, mid.Misses-before.Misses; h != 0 || miss != 1 {
				t.Fatalf("%s/%s: cold run took %d hits, %d misses, want 0, 1", c.Name, m.Name, h, miss)
			}
			if h, miss := after.Hits-mid.Hits, after.Misses-mid.Misses; h != 1 || miss != 0 {
				t.Fatalf("%s/%s: second run took %d hits, %d misses, want 1, 0", c.Name, m.Name, h, miss)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("%s/%s: a world-cache hit diverges from the cold build", c.Name, m.Name)
			}
		}
	}
}

// TestChannelModelComposesWithFaults runs a stochastic channel model under
// a fault scenario: the two layers must compose without breaking any
// invariant, stay reproducible, and the faulted run must diverge from the
// fault-free run under the same model.
func TestChannelModelComposesWithFaults(t *testing.T) {
	var c Case
	for _, cand := range Cases() {
		if cand.Name == "fedavg" {
			c = cand
		}
	}
	m := ChannelModels()[1] // radio
	if m.Name != channel.ModelRadio {
		t.Fatalf("expected radio at axis slot 1, got %s", m.Name)
	}
	run := func(scenario string) []byte {
		res, err := RunChannel(c, m, scenario, matrixSeed)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", c.Name, scenario, m.Name, err)
		}
		if err := CheckInvariants(res); err != nil {
			t.Fatalf("%s/%s/%s: %v", c.Name, scenario, m.Name, err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	clean := run(ScenarioFaultFree)
	faulted := run(faults.ScenarioBurstLoss)
	if bytes.Equal(clean, faulted) {
		t.Error("burst-loss scenario had no effect under the radio model")
	}
	if again := run(faults.ScenarioBurstLoss); !bytes.Equal(faulted, again) {
		t.Error("faulted radio run is not reproducible at the same seed")
	}
}

// TestExplicitAnalyticModelByteIdentical proves the model code path itself
// reproduces the legacy analytic path float for float: a run with an
// explicit channel.Analytic model installed (forcing every transfer
// through the Link/Outcome machinery) is byte-identical to the default
// run that never constructs a model.
func TestExplicitAnalyticModelByteIdentical(t *testing.T) {
	var c Case
	for _, cand := range Cases() {
		if cand.Name == "opportunistic" {
			c = cand
		}
	}
	run := func(install bool) []byte {
		cfg := Config(matrixSeed)
		strat, err := c.New()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := core.New(cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		if install {
			// The RNG seed is arbitrary: Analytic consumes no randomness and
			// produces no model drop, so the stream is never read.
			if err := exp.Network().SetChannel(channel.Analytic{}, sim.NewRNG(12345)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(false), run(true); !bytes.Equal(a, b) {
		t.Error("explicit Analytic model diverges from the legacy analytic code path")
	}
}

// TestChannelRecordIsResultInvariant asserts the recorder contract: a
// recorded run is byte-identical to the same run unrecorded, and the log it
// returns is non-empty with channel-attributable outcomes.
func TestChannelRecordIsResultInvariant(t *testing.T) {
	var c Case
	for _, cand := range Cases() {
		if cand.Name == "fedavg" {
			c = cand
		}
	}
	run := func(record bool) (*core.Result, []byte) {
		cfg := Config(matrixSeed)
		cfg.Comm.Channel = &channel.Config{Model: channel.ModelRadio}
		cfg.ChannelRecord = record
		strat, err := c.New()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := core.New(cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	plain, a := run(false)
	recorded, b := run(true)
	if !bytes.Equal(a, b) {
		t.Fatal("recording the channel trace perturbed the run")
	}
	if plain.ChannelLog != nil {
		t.Error("unrecorded run returned a channel log")
	}
	if recorded.ChannelLog == nil || recorded.ChannelLog.Len() == 0 {
		t.Fatal("recorded run returned no channel samples")
	}
	var delivered int
	for _, s := range recorded.ChannelLog.Samples() {
		if s.Outcome == channel.OutcomeDelivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("channel trace recorded no delivered transfers")
	}
}

// TestEmptyFaultPlanMatchesNil is a metamorphic cell: a run with an empty
// fault plan is byte-identical to the same run with none, for every
// strategy under every channel model. An empty plan must install nothing.
func TestEmptyFaultPlanMatchesNil(t *testing.T) {
	run := func(c Case, m ChannelModel, plan *faults.Plan) []byte {
		t.Helper()
		cfg := Config(matrixSeed)
		cfg.Comm.Channel = m.Config
		cfg.Faults = plan
		strat, err := c.New()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := core.New(cfg, strat)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Name, m.Name, err)
		}
		res, err := exp.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Name, m.Name, err)
		}
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range Cases() {
		for _, m := range ChannelModels() {
			if !bytes.Equal(run(c, m, nil), run(c, m, &faults.Plan{})) {
				t.Errorf("%s/%s: an empty fault plan changed the run", c.Name, m.Name)
			}
		}
	}
}
