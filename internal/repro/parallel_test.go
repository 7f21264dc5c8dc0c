package repro

import (
	"bytes"
	"runtime"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
)

// smallSeedSpecs is a laptop-scale fedavg seed sweep in run-spec form.
func smallSeedSpecs(seeds ...uint64) []campaign.RunSpec {
	specs := make([]campaign.RunSpec, len(seeds))
	for i, seed := range seeds {
		cfg := core.SmallConfig()
		cfg.Seed = seed
		specs[i] = campaign.RunSpec{
			Name:     "fedavg",
			Strategy: campaign.StrategySpec{Kind: "fedavg", Rounds: 4},
			Config:   cfg,
		}
	}
	return specs
}

// executeCanonical runs specs through Execute under the given GOMAXPROCS,
// which sizes Execute's pool, and returns each run's canonical bytes.
func executeCanonical(t *testing.T, procs int, specs []campaign.RunSpec) [][]byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	results, err := Execute(specs...)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	out := make([][]byte, len(results))
	for i, res := range results {
		b, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestRunParallelWorkerCountInvariant re-runs one seed sweep through the
// figures' runner on pools of 1, 2 and 4 workers and requires every run's
// canonical serialization to be byte-identical: parallelism is across runs
// and must never leak into any single run's results.
func TestRunParallelWorkerCountInvariant(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	specs := smallSeedSpecs(seeds...)
	base := executeCanonical(t, 1, specs)
	for _, procs := range []int{2, 4} {
		got := executeCanonical(t, procs, specs)
		for i := range base {
			if !bytes.Equal(base[i], got[i]) {
				d := firstDiff(base[i], got[i])
				t.Fatalf("seed %d differs between 1 and %d workers at byte %d:\n...%q\nvs\n...%q",
					seeds[i], procs, d, clip(base[i], d), clip(got[i], d))
			}
		}
	}
}

// TestRunParallelDistinctSeedsDiffer: two seeds run side by side on the
// figures' runner must not collapse into the same run.
func TestRunParallelDistinctSeedsDiffer(t *testing.T) {
	got := executeCanonical(t, 2, smallSeedSpecs(1, 2))
	if bytes.Equal(got[0], got[1]) {
		t.Fatal("different seeds produced byte-identical runs")
	}
}
