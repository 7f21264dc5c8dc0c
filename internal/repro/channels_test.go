package repro

import (
	"testing"

	"roadrunner/internal/channel"
)

// TestAblationChannelsShape runs the channel ablation at tiny scale and
// asserts the structural contract: one point per (strategy, model) cell in
// sweep order, the oracle column derived from the radio runs' recorded
// traces, and the whole sweep deterministic — a repeat at the same seed
// reproduces every point exactly (the record → fit → replay pipeline is
// part of the determinism surface, not just the runs).
func TestAblationChannelsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment; skipped in -short mode")
	}
	const rounds = 2
	points, err := AblationChannels(rounds, 1)
	if err != nil {
		t.Fatalf("AblationChannels: %v", err)
	}
	sweep := DefaultChannelSweep()
	if want := 2 * len(sweep); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	for i, p := range points {
		wantModel := sweep[i%len(sweep)]
		wantStrat := "BASE"
		if i >= len(sweep) {
			wantStrat = "OPP"
		}
		if p.Param != wantModel || p.Strategy != wantStrat {
			t.Errorf("point %d is %s/%s, want %s/%s", i, p.Strategy, p.Param, wantStrat, wantModel)
		}
		if p.FinalAcc < 0 || p.FinalAcc > 1 {
			t.Errorf("%s/%s: accuracy %v out of range", p.Strategy, p.Param, p.FinalAcc)
		}
		if p.SimEnd <= 0 {
			t.Errorf("%s/%s: non-positive sim end %v", p.Strategy, p.Param, p.SimEnd)
		}
		if p.V2CMB < 0 || p.V2XMB < 0 || p.FailedMsgs < 0 {
			t.Errorf("%s/%s: negative traffic stats %+v", p.Strategy, p.Param, p)
		}
	}

	again, err := AblationChannels(rounds, 1)
	if err != nil {
		t.Fatalf("AblationChannels repeat: %v", err)
	}
	for i := range points {
		if points[i] != again[i] {
			t.Errorf("point %d not reproducible: %+v vs %+v", i, points[i], again[i])
		}
	}
}

func TestAblationChannelsValidation(t *testing.T) {
	if _, err := AblationChannels(0, 1); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestDefaultChannelSweep(t *testing.T) {
	sweep := DefaultChannelSweep()
	if len(sweep) != 4 || sweep[0] != channel.ModelAnalytic || sweep[3] != channel.ModelOracle {
		t.Fatalf("sweep = %v", sweep)
	}
}
