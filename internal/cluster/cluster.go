// Package cluster is the one way a manifest runs: a Coordinator owns the
// durable work queue (campaign.Queue), the campaign journals, and the
// shared result store; nodes — a daemon's in-process node, joined
// roadrunnerd worker processes, or both — register, heartbeat, claim runs
// from the head of the queue, execute them against the shared store, and
// report outcomes, all through the same Worker loop.
//
// The design leans on two existing invariants instead of inventing new
// distributed-consensus machinery:
//
//   - run results are content-addressed, so two nodes publishing the same
//     run converge on identical bytes and a re-issued claim after a node
//     death becomes a store hit rather than a divergent re-execution;
//   - a campaign's journal (its manifest record, written once at submit)
//     and the queue log are fsync'd JSONL, so a coordinator or worker
//     crash leaves the campaign resumable and the final merged artifact
//     byte-identical on any fleet.
//
// The coordinator is the only source of progress events: every protocol
// step and every run transition is one Event, published to subscribers
// (Coordinator.Subscribe, served as SSE) in the order the coordinator
// applied it, and to observers (Coordinator.Observe) after its lock is
// released.
//
// All lease timing runs on the queue's logical Tick clock, advanced by
// Coordinator.Advance. Production drives Advance from a service-edge
// timer in cmd/roadrunnerd; the chaos harness (chaostest) drives it from
// its deterministic round loop. Nothing in this package but Worker's
// pacing and the HTTP body read deadline reads the host clock.
package cluster

import (
	"roadrunner/internal/campaign"
)

// Assignment is one unit of work granted to a node: the lease that
// authorizes it, plus everything needed to execute and report it.
type Assignment struct {
	Campaign string           `json:"campaign"`
	Ref      string           `json:"ref"`
	Key      string           `json:"key"`
	Lease    campaign.LeaseID `json:"lease"`
	Spec     campaign.RunSpec `json:"spec"`
}

// Outcome is a node's report for one finished assignment.
type Outcome struct {
	State         campaign.RunState `json:"state"`
	Cached        bool              `json:"cached,omitempty"`
	Attempts      int               `json:"attempts,omitempty"`
	FinalAccuracy float64           `json:"final_accuracy,omitempty"`
	EndS          float64           `json:"end_s,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// Event is one entry on the coordinator's progress stream. The chaos
// harness keys its fault schedule off these, and the coordinator's SSE
// endpoint serves them.
//
// Types: submit, node-join, node-dead, node-revived, claim, steal,
// start, complete, stale-complete, lease-expired; run, carrying one
// run's new status (Run); and campaign, carrying the campaign's status
// (Status) — the terminal event once Status.Done, a resync snapshot for
// a subscriber that dropped events otherwise. A subscription opens with a
// snapshot event, which also carries Status.
type Event struct {
	Type     string              `json:"type"`
	Node     string              `json:"node,omitempty"`
	Campaign string              `json:"campaign,omitempty"`
	Ref      string              `json:"ref,omitempty"`
	Key      string              `json:"key,omitempty"`
	Tick     campaign.Tick       `json:"tick"`
	Detail   string              `json:"detail,omitempty"`
	Run      *campaign.RunStatus `json:"run,omitempty"`
	Status   *campaign.Status    `json:"status,omitempty"`
}

// NodeStatus is the externally visible state of one registered worker.
type NodeStatus struct {
	Name     string        `json:"name"`
	Alive    bool          `json:"alive"`
	Capacity int           `json:"capacity"`
	Inflight int           `json:"inflight"`
	Granted  int           `json:"granted"`
	Executed int           `json:"executed"`
	Cached   int           `json:"cached"`
	LastSeen campaign.Tick `json:"last_seen"`
}
