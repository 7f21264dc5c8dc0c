package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"roadrunner/internal/metrics"
)

// smallSpecs expands a laptop-scale fedavg manifest over the seeds.
func smallSpecs(t *testing.T, seeds ...uint64) []RunSpec {
	t.Helper()
	m := Manifest{
		Name:       "determinism",
		Env:        EnvSmall,
		Rounds:     4,
		Strategies: []StrategySpec{{Kind: "fedavg"}},
		Seeds:      seeds,
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// executeSpecs runs specs on a storeless pool of the given size and
// returns each run's canonical bytes in spec order.
func executeSpecs(t *testing.T, workers int, specs []RunSpec) [][]byte {
	t.Helper()
	tasks := make([]Task, len(specs))
	for i, spec := range specs {
		var err error
		if tasks[i], err = TaskForSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	results := NewScheduler(Options{Workers: workers, MaxAttempts: 1}).Execute(tasks)
	out := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("workers=%d run %s: %v", workers, r.Name, r.Err)
		}
		if r.Name != specs[i].Name {
			t.Fatalf("workers=%d result %d is %q, want %q", workers, i, r.Name, specs[i].Name)
		}
		b, err := r.Result.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
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

// TestSchedulerWorkerCountInvariant re-runs one seed sweep on 1, 2 and 4
// workers and requires every run's canonical bytes to be identical:
// parallelism is across runs and must never leak into a run's results.
// Distinct seeds must still produce distinct runs.
func TestSchedulerWorkerCountInvariant(t *testing.T) {
	specs := smallSpecs(t, 1, 2, 3, 4)
	base := executeSpecs(t, 1, specs)
	if bytes.Equal(base[0], base[1]) {
		t.Fatal("different seeds produced byte-identical runs")
	}
	for _, workers := range []int{2, 4} {
		got := executeSpecs(t, workers, specs)
		for i := range base {
			if !bytes.Equal(base[i], got[i]) {
				t.Fatalf("%s differs between 1 and %d workers at byte %d",
					specs[i].Name, workers, firstDiff(base[i], got[i]))
			}
		}
	}
}

// TestSchedulerMatchesSerial holds the pool to a plain loop over
// RunSpec.Execute: same bytes, same order.
func TestSchedulerMatchesSerial(t *testing.T) {
	specs := smallSpecs(t, 1, 2, 3, 4)
	pooled := executeSpecs(t, 4, specs)
	for i, spec := range specs {
		res, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		serial, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial, pooled[i]) {
			t.Fatalf("%s: pool differs from a serial run at byte %d", spec.Name, firstDiff(serial, pooled[i]))
		}
	}
}

// TestSchedulerRace floods the pool with more tasks than workers so the
// feed channel, the shared result slice and each run's recorder are
// exercised under contention. Its assertions are light: it exists for the
// race detector (make race), which fails the run on any unsynchronized
// access.
func TestSchedulerRace(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	seeds := make([]uint64, workers+2)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	specs := smallSpecs(t, seeds...)
	tasks := make([]Task, len(specs))
	for i, spec := range specs {
		var err error
		if tasks[i], err = TaskForSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	results := NewScheduler(Options{Workers: workers, MaxAttempts: 1}).Execute(tasks)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d tasks", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil || r.Result == nil {
			t.Fatalf("task %d (%s): %v", i, r.Name, r.Err)
		}
		if r.Result.Metrics.Counter(metrics.CounterRounds) <= 0 {
			t.Fatalf("task %d (%s): no rounds completed", i, r.Name)
		}
	}
}

func TestSchedulerEmpty(t *testing.T) {
	if got := NewScheduler(Options{Workers: 4}).Execute(nil); len(got) != 0 {
		t.Fatalf("Execute(nil) = %v", got)
	}
}
