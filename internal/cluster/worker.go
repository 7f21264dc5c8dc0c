package cluster

import (
	"errors"
	"time"

	"roadrunner/internal/campaign"
)

// Link is the five verbs a node speaks to its coordinator. *Client
// speaks them over HTTP for a joined worker process; LocalLink calls the
// coordinator directly for a daemon's in-process node.
type Link interface {
	Register(capacity int) error
	Heartbeat() error
	Claims(max int) ([]Assignment, error)
	StartBatch(leases []campaign.LeaseID) ([]error, error)
	CompleteBatch(reports []CompletionReport) ([]error, error)
}

type localLink struct {
	co   *Coordinator
	node string
}

// LocalLink is the in-process Link: node's verbs are direct calls on co.
func LocalLink(co *Coordinator, node string) Link { return localLink{co, node} }

func (l localLink) Register(capacity int) error {
	l.co.RegisterNode(l.node, capacity)
	return nil
}
func (l localLink) Heartbeat() error { return l.co.Heartbeat(l.node) }
func (l localLink) Claims(max int) ([]Assignment, error) {
	return l.co.RequestWork(l.node, max)
}
func (l localLink) StartBatch(leases []campaign.LeaseID) ([]error, error) {
	return l.co.StartRuns(l.node, leases), nil
}
func (l localLink) CompleteBatch(reports []CompletionReport) ([]error, error) {
	return l.co.CompleteRuns(l.node, reports), nil
}

// Worker pacing. All of these are host-side service-edge intervals — the
// only place this package reads the host clock: the lease protocol runs
// on the coordinator's logical tick clock and never observes them, so
// they affect latency only, never results.
const (
	heartbeatInterval = 500 * time.Millisecond
	idlePollInterval  = 200 * time.Millisecond
	registerRetry     = time.Second
	registerAttempts  = 30
)

// Worker is one node's side of the lease protocol — the only claim loop
// there is: a joined roadrunnerd process runs it over a *Client, a
// daemon's in-process node over a LocalLink.
type Worker struct {
	Link     Link
	Node     string // names the node in log lines
	Capacity int    // most claims held at once
	Runner   *Runner
	// Wake, when non-nil, ends an idle wait early. The in-process node
	// feeds it from the coordinator's own events, so a submission is
	// claimed at once instead of at the next idle poll.
	Wake <-chan struct{}
	// Logf, when non-nil, receives one line per join and per reported run.
	Logf func(format string, args ...any)

	idlePoll time.Duration // tests lengthen it; 0 selects idlePollInterval
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run joins the coordinator, heartbeats in the background so a long
// execution cannot starve lease extension, and claims and executes
// batches until stop closes. It returns once the batch in flight has
// been reported — never mid-batch, and never later than that: whatever
// is still queued stays in the coordinator's durable queue.
func (w *Worker) Run(stop <-chan struct{}) error {
	var err error
	for attempt := 0; attempt < registerAttempts; attempt++ {
		if err = w.Link.Register(w.Capacity); err == nil {
			break
		}
		select {
		case <-stop:
			return nil
		case <-time.After(registerRetry): //roadlint:allow wallclock coordinator-join retry pacing at the service edge
		}
	}
	if err != nil {
		return err
	}
	w.logf("worker %s joined (capacity %d)", w.Node, w.Capacity)

	beatStop, beatDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(beatDone)
		ticker := time.NewTicker(heartbeatInterval) //roadlint:allow wallclock worker heartbeat pacing at the service edge
		defer ticker.Stop()
		for {
			select {
			case <-beatStop:
				return
			case <-ticker.C:
				_ = w.Link.Heartbeat()
			}
		}
	}()
	defer func() { close(beatStop); <-beatDone }()

	idlePoll := w.idlePoll
	if idlePoll == 0 {
		idlePoll = idlePollInterval
	}
	idle := time.NewTimer(0) //roadlint:allow wallclock idle-claim poll pacing at the service edge
	defer idle.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-idle.C:
		case <-w.Wake:
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
		}
		// A batch that took long enough for stop to close behind it must
		// not be followed by another.
		select {
		case <-stop:
			return nil
		default:
		}
		if w.runBatch() {
			idle.Reset(0) // more work may be waiting; claim again immediately
		} else {
			idle.Reset(idlePoll)
		}
	}
}

// runBatch is one turn of the protocol: request assignments, pass the
// StartBatch execution gate (dropping stale claims unexecuted), execute
// against the shared store, report the outcomes. A stale slot from
// StartBatch or CompleteBatch means the lease was stolen or expired — the
// worker simply moves on; the re-issued claim's runner finds the result
// in the store if this worker already published it. It reports whether
// it is worth claiming again without waiting.
func (w *Worker) runBatch() bool {
	asgs, err := w.Link.Claims(w.Capacity)
	if errors.Is(err, ErrUnknownNode) {
		// The coordinator restarted: its fleet view died with the old
		// process, and only a fresh registration gets this node back in.
		if w.Link.Register(w.Capacity) != nil {
			return false
		}
		w.logf("worker %s re-joined a restarted coordinator", w.Node)
		return true
	}
	if err != nil || len(asgs) == 0 {
		return false
	}
	// One round-trip gates the whole batch; a stale slot (stolen or
	// expired before we began) drops only its own assignment.
	leases := make([]campaign.LeaseID, len(asgs))
	for i, asg := range asgs {
		leases[i] = asg.Lease
	}
	startErrs, err := w.Link.StartBatch(leases)
	if err != nil {
		return false
	}
	ran := make([]Assignment, 0, len(asgs))
	for i, asg := range asgs {
		if startErrs[i] == nil {
			ran = append(ran, asg)
		}
	}
	reports := make([]CompletionReport, len(ran))
	for i, out := range w.Runner.RunBatch(ran) {
		reports[i] = CompletionReport{Lease: ran[i].Lease, Outcome: out}
	}
	if compErrs, err := w.Link.CompleteBatch(reports); err == nil {
		for i, asg := range ran {
			if compErrs[i] == nil { // else the lease expired mid-run; the re-issued claim will serve our stored result
				w.logf("worker %s: %s %s (%.8s)", w.Node, reports[i].Outcome.State, asg.Spec.Name, asg.Key)
			}
		}
	}
	return true
}
