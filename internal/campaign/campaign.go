package campaign

import (
	"fmt"
	"sync"
)

// RunState is a run's position in the campaign lifecycle.
type RunState string

const (
	// RunQueued: waiting for a worker.
	RunQueued RunState = "queued"
	// RunRunning: a worker picked the run up (it may still be served from
	// the store — cache lookup happens inside the worker).
	RunRunning RunState = "running"
	// RunCached: served from the store without executing a single tick.
	RunCached RunState = "cached"
	// RunDone: freshly executed (and persisted, when a store is attached).
	RunDone RunState = "done"
	// RunFailed: every attempt failed.
	RunFailed RunState = "failed"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunCached || s == RunDone || s == RunFailed
}

// RunStatus is the externally visible state of one run of a campaign.
type RunStatus struct {
	Name     string   `json:"name"`
	Key      string   `json:"key"`
	State    RunState `json:"state"`
	Attempts int      `json:"attempts,omitempty"`
	// FinalAccuracy and EndS are filled on completion.
	FinalAccuracy float64 `json:"final_accuracy,omitempty"`
	EndS          float64 `json:"end_s,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// Status is a consistent snapshot of a whole campaign.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Done  bool   `json:"done"`
	Total int    `json:"total"`
	// Per-state tallies; Queued+Running+Cached+Completed+Failed == Total.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Cached    int `json:"cached"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Runs lists every run in deterministic expansion order.
	Runs []RunStatus `json:"runs"`
}

// Campaign is one submitted manifest in flight (or finished): its expanded
// specs and per-run status. All methods are safe for concurrent use; the
// cluster coordinator drives every transition and publishes the progress
// events.
type Campaign struct {
	id       string
	manifest Manifest
	specs    []RunSpec

	mu     sync.Mutex
	runs   []RunStatus
	done   bool
	doneCh chan struct{}
}

// NewCampaign validates and expands the manifest and derives every run's
// content address up front, so a submission error surfaces before any
// execution starts.
func NewCampaign(id string, m Manifest) (*Campaign, error) {
	if id == "" {
		return nil, fmt.Errorf("campaign: empty campaign id")
	}
	specs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		id:       id,
		manifest: m,
		specs:    specs,
		runs:     make([]RunStatus, len(specs)),
		doneCh:   make(chan struct{}),
	}
	for i, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		c.runs[i] = RunStatus{Name: spec.Name, Key: key, State: RunQueued}
	}
	return c, nil
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Manifest returns the submitted manifest.
func (c *Campaign) Manifest() Manifest { return c.manifest }

// Specs returns the expanded run specs in campaign order. The slice is
// shared; callers must not mutate it.
func (c *Campaign) Specs() []RunSpec { return c.specs }

// Keys returns every run's content address in campaign order.
func (c *Campaign) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, len(c.runs))
	for i, r := range c.runs {
		keys[i] = r.Key
	}
	return keys
}

// Done returns a channel closed when every run reached a terminal state.
func (c *Campaign) Done() <-chan struct{} { return c.doneCh }

// Status returns a consistent snapshot of the campaign.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

func (c *Campaign) statusLocked() Status {
	st := Status{
		ID:    c.id,
		Name:  c.manifest.Name,
		Done:  c.done,
		Total: len(c.runs),
		Runs:  append([]RunStatus(nil), c.runs...),
	}
	for _, r := range c.runs {
		switch r.State {
		case RunQueued:
			st.Queued++
		case RunRunning:
			st.Running++
		case RunCached:
			st.Cached++
		case RunDone:
			st.Completed++
		case RunFailed:
			st.Failed++
		}
	}
	return st
}

// RunUpdate carries the completion detail an external driver attaches to
// a run transition.
type RunUpdate struct {
	Attempts      int
	FinalAccuracy float64
	EndS          float64
	Error         string
}

// Transition applies a lifecycle change to run i and returns the run's
// new status — the hook the cluster coordinator drives every execution
// through. upd may be nil for a bare state change (started, re-queued
// after a lease expiry).
func (c *Campaign) Transition(i int, state RunState, upd *RunUpdate) RunStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	run := &c.runs[i]
	run.State = state
	if upd != nil {
		run.Attempts = upd.Attempts
		run.FinalAccuracy = upd.FinalAccuracy
		run.EndS = upd.EndS
		run.Error = upd.Error
	}
	return *run
}

// Finish marks the campaign done and closes its Done channel. It is
// idempotent; the coordinator calls it once the last run reaches a
// terminal state.
func (c *Campaign) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	close(c.doneCh)
}
