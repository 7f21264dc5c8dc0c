package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
)

// fakeResult builds a small synthetic result that round-trips through the
// store's rehydration path (metrics JSON + meta sidecar).
func fakeResult(accuracy float64) *core.Result {
	rec := metrics.NewRecorder()
	_ = rec.Record("accuracy", 0, accuracy/2)
	_ = rec.Record("accuracy", 10, accuracy)
	rec.Add("rounds", 2)
	return &core.Result{
		Metrics:         rec,
		End:             sim.Time(10),
		FinalAccuracy:   accuracy,
		EventsProcessed: 42,
	}
}

// instantScheduler builds a scheduler whose backoff does not sleep.
func instantScheduler(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	if opts.Backoff == nil {
		opts.Backoff = func(int) {}
	}
	return NewScheduler(opts)
}

func TestSchedulerPreservesTaskOrder(t *testing.T) {
	s := instantScheduler(t, Options{Workers: 4})
	const n = 16
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		acc := float64(i)
		tasks[i] = Task{
			Name: fmt.Sprintf("run-%d", i),
			Run:  func() (*core.Result, error) { return fakeResult(acc), nil },
		}
	}
	results := s.Execute(tasks)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, tr := range results {
		if tr.Err != nil {
			t.Fatalf("task %d failed: %v", i, tr.Err)
		}
		if tr.Name != fmt.Sprintf("run-%d", i) || tr.Result.FinalAccuracy != float64(i) {
			t.Fatalf("result %d out of order: %+v", i, tr)
		}
	}
	st := s.Stats()
	if st.Executed != n {
		t.Fatalf("stats after execute: %+v", st)
	}
	if st.SimSeconds != 10*n || st.EventsExecuted != 42*n {
		t.Fatalf("throughput accounting wrong: %+v", st)
	}
}

func TestSchedulerIsolatesPanics(t *testing.T) {
	s := instantScheduler(t, Options{Workers: 2, MaxAttempts: 1})
	tasks := []Task{
		{Name: "ok", Run: func() (*core.Result, error) { return fakeResult(0.5), nil }},
		{Name: "boom", Run: func() (*core.Result, error) { panic("synthetic failure") }},
		{Name: "nil", Run: func() (*core.Result, error) { return nil, nil }},
	}
	results := s.Execute(tasks)
	if results[0].Err != nil {
		t.Fatalf("healthy task failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("nil result accepted as success")
	}
}

func TestSchedulerRetriesWithBackoff(t *testing.T) {
	var backoffs []int
	var mu sync.Mutex
	s := NewScheduler(Options{
		Workers:     1,
		MaxAttempts: 3,
		Backoff: func(attempt int) {
			mu.Lock()
			backoffs = append(backoffs, attempt)
			mu.Unlock()
		},
	})
	var calls atomic.Int64
	flaky := Task{Name: "flaky", Run: func() (*core.Result, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return fakeResult(0.7), nil
	}}
	results := s.Execute([]Task{flaky})
	if results[0].Err != nil {
		t.Fatalf("flaky task failed after retries: %v", results[0].Err)
	}
	if results[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", results[0].Attempts)
	}
	if len(backoffs) != 2 || backoffs[0] != 1 || backoffs[1] != 2 {
		t.Fatalf("backoff attempts = %v, want [1 2]", backoffs)
	}
	if st := s.Stats(); st.Retried != 2 {
		t.Fatalf("stats: %+v", st)
	}

	var hopeless atomic.Int64
	results = s.Execute([]Task{{Name: "hopeless", Run: func() (*core.Result, error) {
		hopeless.Add(1)
		return nil, errors.New("permanent")
	}}})
	if results[0].Err == nil {
		t.Fatal("permanently failing task reported success")
	}
	if got := hopeless.Load(); got != 3 {
		t.Fatalf("permanently failing task ran %d times, want 3", got)
	}
}

func TestSchedulerCacheHitSkipsExecution(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := instantScheduler(t, Options{Workers: 2, Store: store})

	spec := tinySpec(1)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	task := Task{Name: spec.Name, Key: key, Spec: spec, Run: func() (*core.Result, error) {
		executions.Add(1)
		return fakeResult(0.9), nil
	}}

	cold := s.Execute([]Task{task})
	if cold[0].Err != nil || cold[0].Cached {
		t.Fatalf("cold run: %+v", cold[0])
	}
	if executions.Load() != 1 {
		t.Fatalf("cold run executed %d times", executions.Load())
	}
	if !store.Has(key) {
		t.Fatal("cold run result not persisted")
	}

	warm := s.Execute([]Task{task})
	if warm[0].Err != nil {
		t.Fatalf("warm run failed: %v", warm[0].Err)
	}
	if !warm[0].Cached {
		t.Fatal("second execution of an identical spec was not a cache hit")
	}
	if executions.Load() != 1 {
		t.Fatalf("cache hit still executed the run (%d executions)", executions.Load())
	}
	if warm[0].Result.FinalAccuracy != cold[0].Result.FinalAccuracy {
		t.Fatal("cached result differs from the cold one")
	}
	st := s.Stats()
	if st.Executed != 1 || st.Cached != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The warm pass must add zero simulated work.
	if st.SimSeconds != 10 || st.EventsExecuted != 42 {
		t.Fatalf("cache hit accrued simulated work: %+v", st)
	}
}

func TestSchedulerStorePutFailureFailsRun(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := instantScheduler(t, Options{Workers: 1, MaxAttempts: 2, Store: store})

	spec := tinySpec(1)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Consume the single allowed put so the scheduler's own put fails.
	other := tinySpec(99)
	otherKey, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	store.FailAfterPuts(1)
	if err := store.Put(otherKey, other, fakeResult(0.1)); err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	task := Task{Name: spec.Name, Key: key, Spec: spec, Run: func() (*core.Result, error) {
		executions.Add(1)
		return fakeResult(0.9), nil
	}}
	results := s.Execute([]Task{task})
	if results[0].Err == nil {
		t.Fatal("run reported success despite persistence failing")
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("run attempted %d times, want 2 (persistence is part of the run)", got)
	}
}

func TestSchedulerUncacheableTaskSkipsStore(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := instantScheduler(t, Options{Workers: 1, Store: store})
	var executions atomic.Int64
	task := Task{Name: "opaque", Run: func() (*core.Result, error) {
		executions.Add(1)
		return fakeResult(0.3), nil
	}}
	for i := 0; i < 2; i++ {
		results := s.Execute([]Task{task})
		if results[0].Err != nil || results[0].Cached {
			t.Fatalf("pass %d: %+v", i, results[0])
		}
	}
	if executions.Load() != 2 {
		t.Fatalf("uncacheable task executed %d times, want 2", executions.Load())
	}
}
