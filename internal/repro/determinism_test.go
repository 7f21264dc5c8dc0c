package repro

import (
	"bytes"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
)

// runOnce executes one small fedavg experiment with the given evaluation
// worker count and returns its canonical bytes.
func runOnce(t *testing.T, seed uint64, evalWorkers int) []byte {
	t.Helper()
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.EvalWorkers = evalWorkers
	spec := campaign.RunSpec{Name: "small", Strategy: campaign.StrategySpec{Kind: "fedavg", Rounds: 4}, Config: cfg}
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff locates the first differing byte for a readable failure.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSameSeedByteIdentical is the determinism regression test for paper
// requirement 6: identical (config, seed) must reproduce the experiment
// byte for byte. Any nondeterminism the roadlint analyzers guard against
// — a stray math/rand draw, wall-clock coupling, unsorted map iteration
// feeding simulation state — surfaces here as a byte mismatch. The pool's
// worker-count invariance is internal/campaign's
// TestSchedulerWorkerCountInvariant.
func TestSameSeedByteIdentical(t *testing.T) {
	a := runOnce(t, 11, 0)
	b := runOnce(t, 11, 0)
	if !bytes.Equal(a, b) {
		i := firstDiff(a, b)
		t.Fatalf("same seed diverged at byte %d:\n...%q\nvs\n...%q",
			i, clip(a, i), clip(b, i))
	}
	if other := runOnce(t, 12, 0); bytes.Equal(a, other) {
		t.Fatal("different seeds produced byte-identical results")
	}
}

// clip returns a short window of b around offset i for error messages.
func clip(b []byte, i int) []byte {
	lo, hi := i-20, i+20
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}
