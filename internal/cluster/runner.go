package cluster

import (
	"roadrunner/internal/campaign"
)

// Runner executes assignments on a node: a thin wrapper over the
// library scheduler pool so every node inherits its store-first lookup,
// retry-with-backoff, panic isolation, and durable-put-before-report
// contract unchanged.
type Runner struct {
	sched *campaign.Scheduler
}

// NewRunner builds a node-side runner against the shared store. workers
// is the pool a claimed batch executes on (a joined worker process runs
// one; the in-process node of a daemon runs -workers); MaxAttempts and
// Backoff follow campaign.Options semantics.
func NewRunner(store *campaign.Store, workers, maxAttempts int, backoff func(int)) *Runner {
	return &Runner{sched: campaign.NewScheduler(campaign.Options{
		Workers:     workers,
		Store:       store,
		MaxAttempts: maxAttempts,
		Backoff:     backoff,
	})}
}

// Stats exposes the underlying pool's accounting (the node's /metrics
// source).
func (r *Runner) Stats() campaign.Stats { return r.sched.Stats() }

// Run executes one assignment — RunBatch with a batch of one.
func (r *Runner) Run(asg Assignment) Outcome { return r.RunBatch([]Assignment{asg})[0] }

// RunBatch executes a claimed batch on the pool and reports one outcome
// per assignment, in order. A store hit skips execution (Cached); a
// fresh execution only reports done once its result is durable in the
// shared store.
func (r *Runner) RunBatch(asgs []Assignment) []Outcome {
	outs := make([]Outcome, len(asgs))
	tasks := make([]campaign.Task, 0, len(asgs))
	slots := make([]int, 0, len(asgs))
	for i, asg := range asgs {
		task, err := campaign.TaskForSpec(asg.Spec)
		if err != nil {
			outs[i] = Outcome{State: campaign.RunFailed, Error: err.Error()}
			continue
		}
		tasks = append(tasks, task)
		slots = append(slots, i)
	}
	for k, tr := range r.sched.Execute(tasks) {
		out := Outcome{Attempts: tr.Attempts}
		switch {
		case tr.Cached:
			out.State = campaign.RunCached
			out.Cached = true
		case tr.Err != nil:
			out.State = campaign.RunFailed
			out.Error = tr.Err.Error()
		default:
			out.State = campaign.RunDone
		}
		if tr.Result != nil {
			out.FinalAccuracy = tr.Result.FinalAccuracy
			out.EndS = float64(tr.Result.End)
		}
		outs[slots[k]] = out
	}
	return outs
}
