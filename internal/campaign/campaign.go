package campaign

import (
	"fmt"
	"sort"
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

// Event is one progress notification on a campaign's subscription stream
// (served over SSE by internal/cluster). Type "run" carries the updated
// run; type "campaign" carries the final status snapshot.
type Event struct {
	Type     string     `json:"type"`
	Campaign string     `json:"campaign"`
	Run      *RunStatus `json:"run,omitempty"`
	Status   *Status    `json:"status,omitempty"`
}

// Campaign is one submitted manifest in flight (or finished): its expanded
// specs, per-run status, and a broadcast channel of progress events. All
// methods are safe for concurrent use.
type Campaign struct {
	id       string
	manifest Manifest
	specs    []RunSpec

	mu      sync.Mutex
	runs    []RunStatus
	done    bool
	doneCh  chan struct{}
	subs    map[int]*subscriber
	nextSub int
}

// subscriber is one progress listener. Broadcasts never block the
// coordinator, so a stalled listener can drop intermediate events; lossy
// records that a drop happened, and the next broadcast with buffer space
// re-synchronizes the listener with a full status snapshot before any
// further incremental events.
type subscriber struct {
	ch    chan Event
	lossy bool
}

// subscriberBuffer is each listener's channel capacity. It only needs to
// absorb short bursts: a listener that stalls past it is healed by the
// snapshot-resync path, and the terminal event is delivered
// unconditionally, so correctness never depends on the buffer size.
const subscriberBuffer = 32

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
		subs:     make(map[int]*subscriber),
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

// Subscribe registers a progress listener. The returned channel receives
// subsequent events, buffered so broadcasts never block the coordinator. A
// listener that stalls long enough to overflow the buffer loses
// intermediate events, but never silently: once it drains, the next event
// it receives is a full "campaign" status snapshot covering everything it
// missed (including resume-driven state transitions), and the terminal
// event is always delivered. The channel is closed by cancel or when the
// campaign finishes after its final event.
func (c *Campaign) Subscribe() (<-chan Event, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan Event, subscriberBuffer)
	if c.done {
		// Late subscribers still observe the terminal event.
		ch <- Event{Type: "campaign", Campaign: c.id, Status: ptr(c.statusLocked())}
		close(ch)
		return ch, func() {}
	}
	id := c.nextSub
	c.nextSub++
	c.subs[id] = &subscriber{ch: ch}
	cancel := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if sub, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(sub.ch)
		}
	}
	return ch, cancel
}

func ptr[T any](v T) *T { return &v }

// broadcastLocked fans an event out to all subscribers without blocking,
// in subscription order. A subscriber that previously dropped an event is
// sent a status snapshot first, so incremental events downstream of a gap
// are never interpreted against stale state.
func (c *Campaign) broadcastLocked(ev Event) {
	for _, id := range c.subIDsLocked() {
		sub := c.subs[id]
		if sub.lossy {
			select {
			case sub.ch <- Event{Type: "campaign", Campaign: c.id, Status: ptr(c.statusLocked())}:
				sub.lossy = false
			default:
				// Still stalled; stay lossy and keep the gap open.
			}
		}
		select {
		case sub.ch <- ev:
		default:
			sub.lossy = true
		}
	}
}

// deliverLocked sends the terminal event unconditionally: if the
// subscriber's buffer is full, buffered intermediate events are evicted
// oldest-first until the event fits. The terminal snapshot supersedes
// everything it displaces, and broadcasts only happen under c.mu, so the
// eviction loop cannot race another sender.
func (c *Campaign) deliverLocked(sub *subscriber, ev Event) {
	for {
		select {
		case sub.ch <- ev:
			return
		default:
		}
		select {
		case <-sub.ch:
		default:
		}
	}
}

func (c *Campaign) subIDsLocked() []int {
	ids := make([]int, 0, len(c.subs))
	for id := range c.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// RunUpdate carries the completion detail an external driver attaches to
// a run transition.
type RunUpdate struct {
	Attempts      int
	FinalAccuracy float64
	EndS          float64
	Error         string
}

// Transition applies a lifecycle change to run i and broadcasts it —
// the hook the cluster coordinator drives every execution through. upd
// may be nil for a bare state change (started, re-queued after a lease
// expiry).
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
	snapshot := *run
	c.broadcastLocked(Event{Type: "run", Campaign: c.id, Run: ptr(snapshot)})
	return snapshot
}

// Finish marks the campaign done, emits the terminal event, and closes
// every subscription. It is idempotent; the coordinator calls it once
// the last run reaches a terminal state.
func (c *Campaign) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	terminal := Event{Type: "campaign", Campaign: c.id, Status: ptr(c.statusLocked())}
	for _, id := range c.subIDsLocked() {
		sub := c.subs[id]
		// The terminal event is delivered even to stalled subscribers — a
		// dropped intermediate event must never cost a client the final
		// campaign snapshot.
		c.deliverLocked(sub, terminal)
		close(sub.ch)
		delete(c.subs, id)
	}
	close(c.doneCh)
}
