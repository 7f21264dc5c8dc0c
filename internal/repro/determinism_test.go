package repro

import (
	"bytes"
	"runtime"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
)

// runOnce executes one small fedavg experiment and returns its canonical
// bytes.
func runOnce(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := core.SmallConfig()
	cfg.Seed = seed
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
	a := runOnce(t, 11)
	b := runOnce(t, 11)
	if !bytes.Equal(a, b) {
		i := firstDiff(a, b)
		t.Fatalf("same seed diverged at byte %d:\n...%q\nvs\n...%q",
			i, clip(a, i), clip(b, i))
	}
	if other := runOnce(t, 12); bytes.Equal(a, other) {
		t.Fatal("different seeds produced byte-identical results")
	}
}

// TestSameSeedGOMAXPROCSInvariant runs the same seeded experiment under
// GOMAXPROCS 1, 2 and 4 and requires byte-identical canonical results: a
// run is one goroutine's event loop, and parallelism lives only across
// runs, so the host's processor count must never reach a recorded value.
func TestSameSeedGOMAXPROCSInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := runOnce(t, 13)
		if base == nil {
			base = got
			continue
		}
		if !bytes.Equal(base, got) {
			i := firstDiff(base, got)
			t.Fatalf("GOMAXPROCS=%d diverged at byte %d:\n...%q\nvs\n...%q",
				procs, i, clip(base, i), clip(got, i))
		}
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
