package conformance

import (
	"bytes"
	"runtime"
	"testing"

	"roadrunner/internal/core"
	"roadrunner/internal/faults"
	"roadrunner/internal/trace"
)

// rsuTraceSeed is the seed rsu's trace cells run at. At matrixSeed no
// vehicle comes within V2X range of either RSU in the conformance world, so
// the run has no exchange to trace; at this seed it has several.
const rsuTraceSeed = 3

// runTraceCell is runCell's observability sibling: one (strategy, scenario)
// run with tracing on or off.
func runTraceCell(t *testing.T, c Case, scenario string, traceOn bool) *core.Result {
	t.Helper()
	seed := uint64(matrixSeed)
	if c.Name == "rsu" {
		seed = rsuTraceSeed
	}
	cfg := Config(seed)
	cfg.Trace = traceOn
	if scenario != ScenarioFaultFree {
		plan, err := faults.ScenarioPlan(scenario, ScenarioHorizon)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Name, scenario, err)
		}
		cfg.Faults = &plan
	}
	strat, err := c.New()
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	exp, err := core.New(cfg, strat)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.Name, scenario, err)
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", c.Name, scenario, err)
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("%s/%s: %v", c.Name, scenario, err)
	}
	return res
}

// traceCases is the subset of the matrix the trace cells run over: the
// paper's two headline strategies, which together exercise every span kind
// the tracer emits (rounds, training, evaluation, aggregation, encounter
// exchanges, plus fault windows under a faulted scenario), and RSU-assisted,
// which runs OPP's collector protocol with road-side units as collectors.
func traceCases(t *testing.T) []Case {
	t.Helper()
	var out []Case
	for _, c := range Cases() {
		switch c.Name {
		case "fedavg", "opportunistic", "rsu":
			out = append(out, c)
		}
	}
	if len(out) != 3 {
		t.Fatalf("trace cells found %d of their 3 strategies", len(out))
	}
	return out
}

// checkCollectorSpans asserts that a traced collector-strategy run (OPP or
// RSU-assisted) marked its protocol phases: at least one round span and
// at least one encounter-exchange span.
func checkCollectorSpans(t *testing.T, c Case, res *core.Result) {
	t.Helper()
	if c.Name != "opportunistic" && c.Name != "rsu" {
		return
	}
	kinds := map[string]int{}
	for _, sp := range res.Trace.Spans {
		kinds[sp.Kind]++
	}
	for _, k := range []string{trace.KindRound, trace.KindEncounterExchange} {
		if kinds[k] == 0 {
			t.Errorf("%s: traced run recorded no %q span", c.Name, k)
		}
	}
}

// TestTraceByteIdentityAcrossGOMAXPROCS is the observability cell of the
// conformance matrix: the span trace is part of the reproducibility
// contract, so the same (config, seed, plan) triple must yield a
// byte-identical canonical trace under GOMAXPROCS 1 and 4 — tracing
// observes the virtual clock, not the host's scheduling.
func TestTraceByteIdentityAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range traceCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, sc := range []string{ScenarioFaultFree, faults.ScenarioMixed} {
				runtime.GOMAXPROCS(1)
				one := runTraceCell(t, c, sc, true)
				runtime.GOMAXPROCS(4)
				four := runTraceCell(t, c, sc, true)
				if one.Trace == nil || four.Trace == nil {
					t.Fatalf("%s: traced run returned nil trace", sc)
				}
				if len(one.Trace.Spans) == 0 {
					t.Fatalf("%s: traced run recorded no spans", sc)
				}
				checkCollectorSpans(t, c, one)
				a, err := one.Trace.CanonicalBytes()
				if err != nil {
					t.Fatalf("%s: canonical trace: %v", sc, err)
				}
				b, err := four.Trace.CanonicalBytes()
				if err != nil {
					t.Fatalf("%s: canonical trace: %v", sc, err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: trace differs between GOMAXPROCS 1 and 4 (%d vs %d bytes)",
						sc, len(a), len(b))
				}
			}
		})
	}
}

// TestTraceDisabledLeavesRunUntouched asserts the other half of the
// observability contract: with Config.Trace off the run carries no trace at
// all, and with it on the recorded results are byte-identical to the
// untraced run — the tracer is a pure observer on the simulated clock.
// (The zero-allocation property of the disabled path is pinned down by
// internal/trace's TestDisabledTracerZeroAllocs.)
func TestTraceDisabledLeavesRunUntouched(t *testing.T) {
	for _, c := range traceCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			off := runTraceCell(t, c, faults.ScenarioMixed, false)
			if off.Trace != nil {
				t.Fatalf("untraced run carries a trace with %d spans", len(off.Trace.Spans))
			}
			on := runTraceCell(t, c, faults.ScenarioMixed, true)
			if on.Trace == nil || len(on.Trace.Spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			checkCollectorSpans(t, c, on)
			a, err := off.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			b, err := on.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("enabling tracing changed the run's canonical result bytes")
			}
		})
	}
}
