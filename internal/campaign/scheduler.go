package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"roadrunner/internal/core"
)

// Task is one unit of scheduler work: a run spec, its content address and
// the closure that executes it. TaskForSpec builds it; the spec travels
// with the key so store entries are self-describing.
type Task struct {
	Name string
	Key  string
	Spec RunSpec
	Run  func() (*core.Result, error)
}

// TaskForSpec builds the canonical task for a run spec: keyed by the
// spec's content address and executing the spec on demand.
func TaskForSpec(spec RunSpec) (Task, error) {
	key, err := spec.Key()
	if err != nil {
		return Task{}, err
	}
	return Task{Name: spec.Name, Key: key, Spec: spec, Run: spec.Execute}, nil
}

// TaskResult is a task's outcome. Exactly one of Cached/Err/plain success
// holds: a cached result skipped execution entirely, an Err means every
// attempt failed, otherwise Result came from a fresh execution (and, when
// the scheduler has a store, was durably persisted before being reported).
type TaskResult struct {
	Name     string
	Key      string
	Result   *core.Result
	Cached   bool
	Attempts int
	Err      error
}

// Stats is a snapshot of the scheduler's lifetime accounting.
type Stats struct {
	// Executed counts fresh simulation executions (attempts that ran to
	// completion); Cached counts store hits that skipped execution;
	// Retried counts extra attempts after a failure.
	Executed uint64
	Cached   uint64
	Retried  uint64
	// SimSeconds and EventsExecuted accumulate simulated seconds and
	// processed simulation events over fresh executions only — a warm
	// cache-hit campaign adds exactly zero to either. WallSeconds is the
	// host time those executions took; SimSeconds/WallSeconds is the
	// pool's aggregate simsec/wallsec throughput.
	SimSeconds     float64
	EventsExecuted uint64
	WallSeconds    float64
}

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Store, when set, is consulted before execution (hits skip the run)
	// and written after it (a run completes only once it is durable).
	Store *Store
	// MaxAttempts caps executions per task, retrying after failures
	// (including recovered panics and store-write errors); <= 0 means 2.
	MaxAttempts int
	// Backoff sleeps between attempts; nil selects an exponential default.
	// Tests inject a no-op to stay instant.
	Backoff func(attempt int)
}

// Scheduler executes tasks on a bounded worker pool with per-run panic
// isolation, retry-with-backoff, and content-addressed result caching. It
// is safe for concurrent use; it is the library pool under cmd/sweep,
// repro.Execute (every figure and ablation) and every cluster node's
// Runner.
type Scheduler struct {
	workers     int
	maxAttempts int
	store       *Store
	backoff     func(int)

	mu    sync.Mutex
	stats Stats
}

// NewScheduler builds a scheduler from options.
func NewScheduler(opts Options) *Scheduler {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 2
	}
	backoff := opts.Backoff
	if backoff == nil {
		backoff = defaultBackoff
	}
	return &Scheduler{
		workers:     workers,
		maxAttempts: attempts,
		store:       opts.Store,
		backoff:     backoff,
	}
}

// defaultBackoff sleeps 50ms << (attempt-1), capping at ~1s. Retry pacing
// is host-side service behaviour; no simulated quantity depends on it.
func defaultBackoff(attempt int) {
	d := 50 * time.Millisecond << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	time.Sleep(d) //roadlint:allow wallclock retry backoff at the service edge; simulation results never depend on it
}

// Stats returns a consistent snapshot of the scheduler's accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Execute runs the tasks to completion and returns outcomes in task
// order. The pool dimension is min(workers, len(tasks)); result order is
// deterministic regardless of completion order.
func (s *Scheduler) Execute(tasks []Task) []TaskResult {
	results := make([]TaskResult, len(tasks))
	workers := s.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				results[idx] = s.runTask(tasks[idx])
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// runTask executes one task: store lookup, then up to maxAttempts
// isolated executions with backoff between them.
func (s *Scheduler) runTask(t Task) TaskResult {
	out := TaskResult{Name: t.Name, Key: t.Key}
	if t.Run == nil {
		out.Err = fmt.Errorf("campaign: task %q has no run function", t.Name)
		return out
	}
	if s.store != nil {
		if res, _ := s.store.Get(t.Key); res != nil {
			s.mu.Lock()
			s.stats.Cached++
			s.mu.Unlock()
			out.Result = res
			out.Cached = true
			return out
		}
	}
	for attempt := 1; attempt <= s.maxAttempts; attempt++ {
		if attempt > 1 {
			s.mu.Lock()
			s.stats.Retried++
			s.mu.Unlock()
			s.backoff(attempt - 1)
		}
		out.Attempts = attempt
		res, err := runIsolated(t)
		if err == nil {
			s.mu.Lock()
			s.stats.Executed++
			s.stats.SimSeconds += float64(res.End)
			s.stats.EventsExecuted += res.EventsProcessed
			s.stats.WallSeconds += res.Wall.Seconds()
			s.mu.Unlock()
			// Persistence is part of the run: a task only succeeds once
			// its result is durable, so a resumed campaign can treat "in
			// store" as "done".
			if s.store != nil {
				err = s.store.Put(t.Key, t.Spec, res)
			}
			if err == nil {
				out.Result = res
				out.Err = nil
				return out
			}
		}
		out.Err = err
	}
	return out
}

// runIsolated executes the task's run closure, converting a panic into an
// error so one faulty run cannot take down the scheduler (or the service
// it backs).
func runIsolated(t Task) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: run %q panicked: %v", t.Name, r)
		}
	}()
	res, err = t.Run()
	if err == nil && res == nil {
		err = fmt.Errorf("campaign: run %q returned no result", t.Name)
	}
	return res, err
}
