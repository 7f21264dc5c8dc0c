package repro

import (
	"bytes"
	"runtime"
	"testing"
)

// TestParallelEvalMatchesSerial requires that turning on shard-parallel
// test-set evaluation changes nothing about an experiment's canonical
// result: recorded accuracies are integer ratios over a fixed shard grid,
// so EvalWorkers is a pure throughput knob.
func TestParallelEvalMatchesSerial(t *testing.T) {
	serial := runOnce(t, 11, 0)
	for _, workers := range []int{1, 2, 4} {
		got := runOnce(t, 11, workers)
		if !bytes.Equal(serial, got) {
			i := firstDiff(serial, got)
			t.Fatalf("EvalWorkers=%d diverged from serial at byte %d:\n...%q\nvs\n...%q",
				workers, i, clip(serial, i), clip(got, i))
		}
	}
}

// TestParallelEvalGOMAXPROCSInvariant runs the same seeded experiment with
// parallel evaluation enabled under GOMAXPROCS 1, 2, and 4 and requires
// byte-identical canonical results: the scheduler may interleave the
// evaluation goroutines any way it likes without touching the outcome.
func TestParallelEvalGOMAXPROCSInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := runOnce(t, 13, 4)
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
