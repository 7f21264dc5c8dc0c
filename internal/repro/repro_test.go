package repro

import (
	"strings"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
)

// TestFigure4Shape asserts the qualitative content of the paper's Figure 4
// at reduced round count: OPP reaches higher accuracy than BASE at the same
// V2C budget, takes ~4.5x as long, and collects 0-20 (avg ~10) V2X
// exchanges per round.
func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment; skipped in -short mode")
	}
	const rounds = 12
	out, err := Fig4(rounds, 1)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}

	// Timing: the paper's totals imply round length = duration + 17.893 s
	// overhead; BASE 47.9 s/round, OPP 217.9 s/round, ratio 4.55.
	wantBaseEnd := float64(rounds) * 47.893
	if rel(float64(out.BaseEnd), wantBaseEnd) > 0.05 {
		t.Errorf("BASE end = %v, want ≈ %v", out.BaseEnd, wantBaseEnd)
	}
	wantRatio := 217.893 / 47.893
	if rel(out.TimeRatio, wantRatio) > 0.10 {
		t.Errorf("time ratio = %v, want ≈ %v (paper: 4.5x)", out.TimeRatio, wantRatio)
	}

	// Exchanges: 0-20 per round, average near 10.
	ex := out.Opp.Metrics.Series(metrics.SeriesRoundExchanges)
	if ex == nil || ex.Len() != rounds {
		t.Fatalf("exchange series missing or wrong length: %v", ex)
	}
	for _, p := range ex.Points {
		if p.Value < 0 || p.Value > 40 {
			t.Errorf("round exchange count %v outside plausible range", p.Value)
		}
	}
	if out.AvgExchanges < 3 || out.AvgExchanges > 25 {
		t.Errorf("avg exchanges = %v, want near the paper's ~10", out.AvgExchanges)
	}

	// Accuracy: OPP must beat BASE, both above chance (0.1).
	if out.OppAccuracy <= out.BaseAccuracy {
		t.Errorf("OPP accuracy %v not above BASE %v", out.OppAccuracy, out.BaseAccuracy)
	}
	if out.OppAccuracy < 0.12 {
		t.Errorf("OPP accuracy %v not above chance", out.OppAccuracy)
	}

	// V2C budget parity: same number of rounds and reporters means message
	// counts within churn slack.
	b, o := out.Base.Comm["v2c"].MessagesSent, out.Opp.Comm["v2c"].MessagesSent
	if o > b*3/2 || b > o*3/2 {
		t.Errorf("V2C budget mismatch: BASE %d msgs, OPP %d msgs", b, o)
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got/want - 1
	if d < 0 {
		d = -d
	}
	return d
}

func TestFig4Validation(t *testing.T) {
	if _, err := Fig4(0, 1); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestAblationRoundDurationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment; skipped in -short mode")
	}
	rows, err := AblationRoundDuration(3, 1, []sim.Duration{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Longer rounds take more simulated time and gather at least as many
	// exchange opportunities on average.
	if rows[1].SimEnd <= rows[0].SimEnd {
		t.Errorf("400s rounds ended at %v, 50s at %v; want longer", rows[1].SimEnd, rows[0].SimEnd)
	}
	for _, r := range rows {
		if r.FinalAcc < 0 || r.FinalAcc > 1 {
			t.Errorf("%s: accuracy %v out of range", r.Param, r.FinalAcc)
		}
	}
}

func TestAblationChurnDiscardsGrowWithOffProb(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment; skipped in -short mode")
	}
	rows, err := AblationChurn(4, 1, []float64{0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[1].Discarded < rows[0].Discarded {
		t.Errorf("high churn discarded %v models, low churn %v; want monotone",
			rows[1].Discarded, rows[0].Discarded)
	}
}

func TestLateAccuracyEmpty(t *testing.T) {
	out, err := Fig4(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := LateAccuracy(out.Base, 5); got < 0 || got > 1 {
		t.Fatalf("LateAccuracy = %v", got)
	}
}

func TestDefaultSkewSweep(t *testing.T) {
	sweep := DefaultSkewSweep()
	if len(sweep) != 4 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	for i, pc := range sweep {
		if err := pc.Validate(); err != nil {
			t.Errorf("sweep point %d invalid: %v", i, err)
		}
	}
}

// TestExecutePropagatesErrors: a spec that cannot run fails the whole
// call, named, and a round count the strategy spec would silently default
// is rejected before anything runs.
func TestExecutePropagatesErrors(t *testing.T) {
	good := Spec("good", 1, base(1), nil)
	for name, bad := range map[string]campaign.RunSpec{
		"unknown-kind": Spec("unknown-kind", 1, campaign.StrategySpec{Kind: "nope", Rounds: 1}, nil),
		"zero-rounds":  Spec("zero-rounds", 1, base(0), nil),
		"bad-config":   {Name: "bad-config", Strategy: base(1), Config: core.Config{}},
	} {
		_, err := Execute(good, bad)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Execute error = %v, want one naming the spec", name, err)
		}
	}
	if got, err := Execute(); err != nil || len(got) != 0 {
		t.Fatalf("Execute() = %v, %v", got, err)
	}
}

// TestFig4SpecKeysPinned holds Figure 4's 75-round specs on seed 1 to the
// run keys a Figure-4 manifest expands to, recorded before the figures
// became run specs: describing the same run another way must not move its
// content address.
func TestFig4SpecKeysPinned(t *testing.T) {
	want := []string{
		"77b109a15bb21a9c7487c710ea55cbc3ed5f23f35ba7f283d5e9a7e44c3335d3",
		"c7c4b9955f4326ce8bc78af96bebdce23c4e19d4a4756c911a9d0adb2d0f3a2e",
	}
	m := campaign.Manifest{
		Name:       "fig4",
		Rounds:     75,
		Strategies: []campaign.StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{1},
	}
	manifestSpecs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range Fig4Specs(75, 1) {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if key != want[i] {
			t.Errorf("%s key = %s, want %s", spec.Name, key, want[i])
		}
		if mk, _ := manifestSpecs[i].Key(); mk != key {
			t.Errorf("%s key %s differs from the manifest's %s", spec.Name, key, mk)
		}
	}
}
