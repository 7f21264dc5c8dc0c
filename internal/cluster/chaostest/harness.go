// Package chaostest is a deterministic chaos-test harness for the
// cluster subsystem. It binds the real coordinator, durable queue,
// journals, and shared store into a single-threaded round loop that
// simulates a fleet of worker nodes, and injects faults — node kills,
// heartbeat stalls, duplicated completions, store corruption — from a
// scripted schedule keyed off the cluster's own event stream, never off
// wall-clock time. The same script against the same manifest therefore
// takes the same assertion path every run: identical event logs,
// identical tick counts, identical merged bytes.
//
// Faults trigger on events ("the 2nd complete by node w1") because event
// counts are deterministic where wall-clock sleeps are not; triggered
// actions apply at the next round boundary, so every interleaving the
// harness produces is one the real protocol can produce, and the whole
// space of (kill round × node) interleavings can be enumerated by
// looping over scripts.
package chaostest

import (
	"fmt"
	"os"
	"path/filepath"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// Trigger matches the Nth cluster event of a type (1-based), optionally
// filtered to one node.
type Trigger struct {
	Event string
	N     int
	Node  string
}

// Action is one scripted fault.
type Action interface {
	// Describe labels the action in the harness log.
	Describe() string
}

// Kill stops a node permanently: no more heartbeats, claims, or
// executions. With MidRun set, the node dies immediately after passing
// the Start gate on its next run — the lease is started but never
// completed, the crash-mid-run case lease expiry must recover. Under
// GateBacklog the MidRun death lands after the node gates its whole
// backlog through one StartRuns call, orphaning every started lease in
// the batch at once — the kill-mid-batch case.
type Kill struct {
	Node   string
	MidRun bool
}

// Describe implements Action.
func (k Kill) Describe() string {
	if k.MidRun {
		return "kill-mid-run " + k.Node
	}
	return "kill " + k.Node
}

// RestartCoordinator closes the coordinator and reopens it from the
// shared store — the coordinator-crash case. The durable queue replays
// (snapshot + tail when a compaction has run), nodes re-register, and
// campaigns resume by ID. Leases granted by the dead epoch are
// invalidated by replay, so workers holding old assignments drop them at
// the Start gate.
//
// With CrashCompaction set, the restart first simulates a crash inside
// the compaction window: a snapshot is force-published and the
// pre-compaction log bytes are restored over the rotated log, leaving
// the snapshot one generation ahead of the log — recovery must detect
// the half-finished compaction and complete the rotation itself.
type RestartCoordinator struct {
	CrashCompaction bool
}

// Describe implements Action.
func (r RestartCoordinator) Describe() string {
	if r.CrashCompaction {
		return "restart-coordinator crash-mid-compaction"
	}
	return "restart-coordinator"
}

// Stall freezes a node for Rounds rounds: no heartbeats (so its leases
// age toward expiry and its unstarted claims become stealable), no
// claims, no executions. The node resumes afterwards.
type Stall struct {
	Node   string
	Rounds int
}

// Describe implements Action.
func (s Stall) Describe() string { return fmt.Sprintf("stall %s %dr", s.Node, s.Rounds) }

// DuplicateComplete replays the most recent completion report — the
// retried-RPC case. The coordinator must reject it as a stale lease and
// change nothing.
type DuplicateComplete struct{}

// Describe implements Action.
func (DuplicateComplete) Describe() string { return "duplicate-complete" }

// CorruptEntry flips a byte inside the most recently completed run's
// stored canonical bytes. The store's verify-on-read must evict the
// damaged entry and the merge must self-heal it.
type CorruptEntry struct{}

// Describe implements Action.
func (CorruptEntry) Describe() string { return "corrupt-entry" }

// Step binds a trigger to an action.
type Step struct {
	On Trigger
	Do Action
}

// Script is an ordered fault schedule.
type Script []Step

// NodeConfig declares one simulated worker.
type NodeConfig struct {
	Name string
	// Capacity is the most claims the node holds at once; claims beyond
	// the one it executes each round form its backlog (what stealing
	// targets). <= 0 selects 2.
	Capacity int
}

// Config assembles a harness.
type Config struct {
	// Dir is the shared store directory (the cluster's durable tier).
	Dir   string
	Nodes []NodeConfig
	// LeaseTTL and StealAfter follow cluster.Options; <= 0 selects the
	// harness defaults 4 and 2.
	LeaseTTL   campaign.Tick
	StealAfter campaign.Tick
	// GateBacklog selects the harness's pacing — every node speaks
	// StartRuns/CompleteRuns either way. Off, a node executes one run per
	// round (a batch of one), which is what leaves claims sitting
	// unstarted for the steal and expiry scenarios; on, it gates its
	// whole backlog through one StartRuns call and reports every outcome
	// through one CompleteRuns call per round.
	GateBacklog bool
	// CompactEvery and MaxOutstanding forward to cluster.Options: the
	// queue's snapshot-compaction threshold and the admission cap.
	CompactEvery   int
	MaxOutstanding int
	// MaxRounds bounds the round loop; <= 0 selects 200.
	MaxRounds int
	Script    Script
}

// workerNode is the harness's in-process stand-in for one roadrunnerd
// worker: its own store handle on the shared directory (as a separate
// process would have) and its own runner.
type workerNode struct {
	name     string
	capacity int
	runner   *cluster.Runner
	backlog  []cluster.Assignment
	alive    bool
	stalled  int
	// killMidRun arms a mid-run death: consumed at the node's next
	// execution slot, after Start and before the run.
	killMidRun bool
}

// completion remembers a reported outcome so DuplicateComplete and
// CorruptEntry can replay or damage it.
type completion struct {
	node  string
	lease campaign.LeaseID
	key   string
	out   cluster.Outcome
}

// Harness drives a simulated cluster deterministically.
type Harness struct {
	dir         string
	co          *cluster.Coordinator
	opts        cluster.Options // for RestartCoordinator re-opens
	gateBacklog bool
	nodes       map[string]*workerNode
	order       []string
	script      []scriptStep
	due         []Action
	log         []string
	execCount   map[string]int
	completes   []completion
	stale       int
	maxRounds   int
	campaigns   []string
	rounds      int
}

type scriptStep struct {
	step  Step
	seen  int
	fired bool
}

// New builds a harness: one coordinator plus one simulated worker per
// node config, each with its own store handle on the shared directory.
func New(cfg Config) (*Harness, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("chaostest: no nodes configured")
	}
	store, err := campaign.OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 4
	}
	steal := cfg.StealAfter
	if steal <= 0 {
		steal = 2
	}
	opts := cluster.Options{
		Store: store, LeaseTTL: ttl, StealAfter: steal,
		CompactEvery: cfg.CompactEvery, MaxOutstanding: cfg.MaxOutstanding,
	}
	co, err := cluster.NewCoordinator(opts)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200
	}
	h := &Harness{
		dir:         cfg.Dir,
		co:          co,
		opts:        opts,
		gateBacklog: cfg.GateBacklog,
		nodes:       make(map[string]*workerNode),
		execCount:   make(map[string]int),
		maxRounds:   maxRounds,
	}
	for _, s := range cfg.Script {
		h.script = append(h.script, scriptStep{step: s})
	}
	co.Observe(h.observe)
	for _, nc := range cfg.Nodes {
		capacity := nc.Capacity
		if capacity <= 0 {
			capacity = 2
		}
		nodeStore, err := campaign.OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		h.nodes[nc.Name] = &workerNode{
			name:     nc.Name,
			capacity: capacity,
			runner:   cluster.NewRunner(nodeStore, 1, 2, func(int) {}),
			alive:    true,
		}
		h.order = append(h.order, nc.Name)
		co.RegisterNode(nc.Name, capacity)
	}
	return h, nil
}

// Coordinator exposes the harness's coordinator for extra assertions.
func (h *Harness) Coordinator() *cluster.Coordinator { return h.co }

// observe records every cluster event in the log and matches it against
// the script. It runs synchronously on the round loop's goroutine (the
// coordinator emits after releasing its lock), so trigger evaluation is
// single-threaded and deterministic.
func (h *Harness) observe(ev cluster.Event) {
	h.log = append(h.log, fmt.Sprintf("evt t%02d %s %s %s", ev.Tick, ev.Type, ev.Node, shortKey(ev.Key)))
	for i := range h.script {
		st := &h.script[i]
		if st.fired || st.step.On.Event != ev.Type {
			continue
		}
		if st.step.On.Node != "" && st.step.On.Node != ev.Node {
			continue
		}
		st.seen++
		n := st.step.On.N
		if n <= 0 {
			n = 1
		}
		if st.seen == n {
			st.fired = true
			h.due = append(h.due, st.step.Do)
		}
	}
}

func shortKey(key string) string {
	if len(key) > 8 {
		return key[:8]
	}
	if key == "" {
		return "-"
	}
	return key
}

// Submit registers a manifest with the coordinator and tracks it for
// completion.
func (h *Harness) Submit(m campaign.Manifest) (string, error) {
	id, err := h.co.Submit(m)
	if err != nil {
		return "", err
	}
	h.campaigns = append(h.campaigns, id)
	return id, nil
}

// Log returns the harness's ordered event/action log — the assertion
// path. Two runs of the same script over the same manifest produce
// identical logs.
func (h *Harness) Log() []string { return append([]string(nil), h.log...) }

// Rounds reports how many rounds the loop ran.
func (h *Harness) Rounds() int { return h.rounds }

// ExecCounts returns fresh (non-cached, successful) executions per run
// key across all nodes — the no-double-execution property's evidence.
func (h *Harness) ExecCounts() map[string]int {
	out := make(map[string]int, len(h.execCount))
	for k, v := range h.execCount {
		out[k] = v
	}
	return out
}

// StaleCompletes reports how many completion reports the coordinator
// rejected as stale (duplicates and post-expiry reports).
func (h *Harness) StaleCompletes() int { return h.stale }

// MergedResult renders a campaign's merged canonical artifact.
func (h *Harness) MergedResult(id string) ([]byte, error) { return h.co.MergedResult(id) }

// Close releases the coordinator's files.
func (h *Harness) Close() { h.co.Close() }

// Run drives the cluster until every submitted campaign finishes (or
// MaxRounds passes, which is an error). Each round: due faults apply,
// live nodes heartbeat, nodes with spare capacity claim work (stealing
// when the queue is dry), every live node executes one backlog item, and
// the logical clock advances one tick.
func (h *Harness) Run() error {
	for round := 1; round <= h.maxRounds; round++ {
		h.rounds = round
		h.applyDue(round)

		skip := make(map[string]bool, len(h.order))
		for _, name := range h.order {
			n := h.nodes[name]
			if !n.alive {
				skip[name] = true
				continue
			}
			if n.stalled > 0 {
				n.stalled--
				skip[name] = true
				continue
			}
			_ = h.co.Heartbeat(name)
		}
		for _, name := range h.order {
			n := h.nodes[name]
			if skip[name] {
				continue
			}
			if want := n.capacity - len(n.backlog); want > 0 {
				asgs, err := h.co.RequestWork(name, want)
				if err == nil {
					n.backlog = append(n.backlog, asgs...)
				}
			}
		}
		for _, name := range h.order {
			n := h.nodes[name]
			if skip[name] || len(n.backlog) == 0 {
				continue
			}
			if h.gateBacklog {
				h.executeBatch(n, round)
			} else {
				h.executeOne(n, round)
			}
		}
		h.co.Advance()

		if h.allDone() {
			return nil
		}
	}
	return fmt.Errorf("chaostest: campaigns unfinished after %d rounds", h.maxRounds)
}

// executeOne pops the node's oldest backlog item and runs it through the
// real execution gate as a batch of one: StartRuns (stale claims are
// dropped unexecuted), the runner, then the completion report.
func (h *Harness) executeOne(n *workerNode, round int) {
	asg := n.backlog[0]
	n.backlog = n.backlog[1:]
	if err := h.co.StartRuns(n.name, []campaign.LeaseID{asg.Lease})[0]; err != nil {
		h.log = append(h.log, fmt.Sprintf("act r%02d drop-stale %s %s", round, n.name, shortKey(asg.Key)))
		return
	}
	if n.killMidRun {
		// The crash-mid-run case: the lease is started, the node dies, and
		// nothing is executed or reported. Lease expiry re-queues the run.
		n.killMidRun = false
		n.alive = false
		h.log = append(h.log, fmt.Sprintf("act r%02d died-mid-run %s %s", round, n.name, shortKey(asg.Key)))
		return
	}
	out := n.runner.Run(asg)
	if out.State == campaign.RunDone && !out.Cached {
		h.execCount[asg.Key]++
	}
	h.completes = append(h.completes, completion{node: n.name, lease: asg.Lease, key: asg.Key, out: out})
	if err := h.co.CompleteRuns(n.name, []cluster.CompletionReport{{Lease: asg.Lease, Outcome: out}})[0]; err != nil {
		h.stale++
		h.log = append(h.log, fmt.Sprintf("act r%02d complete-stale %s %s", round, n.name, shortKey(asg.Key)))
	}
}

// executeBatch drains the node's whole backlog through the batched
// protocol: one StartRuns call gates every claim (stale slots drop only
// themselves), admitted runs execute, and one CompleteRuns call reports
// every outcome — the same shape a batched roadrunnerd worker uses.
func (h *Harness) executeBatch(n *workerNode, round int) {
	batch := n.backlog
	n.backlog = nil
	leases := make([]campaign.LeaseID, len(batch))
	for i, asg := range batch {
		leases[i] = asg.Lease
	}
	startErrs := h.co.StartRuns(n.name, leases)
	if n.killMidRun {
		// The kill-mid-batch case: every lease that just passed the Start
		// gate is orphaned at once; lease expiry must recover them all.
		n.killMidRun = false
		n.alive = false
		h.log = append(h.log, fmt.Sprintf("act r%02d died-mid-batch %s %d-leases", round, n.name, len(batch)))
		return
	}
	var reports []cluster.CompletionReport
	var ran []cluster.Assignment
	for i, asg := range batch {
		if startErrs[i] != nil {
			h.log = append(h.log, fmt.Sprintf("act r%02d drop-stale %s %s", round, n.name, shortKey(asg.Key)))
			continue
		}
		out := n.runner.Run(asg)
		if out.State == campaign.RunDone && !out.Cached {
			h.execCount[asg.Key]++
		}
		h.completes = append(h.completes, completion{node: n.name, lease: asg.Lease, key: asg.Key, out: out})
		reports = append(reports, cluster.CompletionReport{Lease: asg.Lease, Outcome: out})
		ran = append(ran, asg)
	}
	for i, err := range h.co.CompleteRuns(n.name, reports) {
		if err != nil {
			h.stale++
			h.log = append(h.log, fmt.Sprintf("act r%02d complete-stale %s %s", round, n.name, shortKey(ran[i].Key)))
		}
	}
}

// restartCoordinator swaps in a fresh coordinator over the same shared
// directory: the durable queue replays, every node re-registers, and the
// submitted campaigns resume under their original IDs. With
// crashCompaction, the restart first manufactures the crash window
// inside compaction — snapshot published, log rotation lost — by
// force-compacting a direct queue handle and then restoring the
// pre-compaction log bytes.
func (h *Harness) restartCoordinator(crashCompaction bool) error {
	logPath := h.co.Store().QueueLogPath()
	h.co.Close()
	if crashCompaction {
		before, err := os.ReadFile(logPath)
		if err != nil {
			return err
		}
		q, err := campaign.OpenQueueWithOptions(logPath, campaign.QueueOptions{CompactEvery: -1})
		if err != nil {
			return err
		}
		if err := q.Compact(); err != nil {
			_ = q.Close()
			return err
		}
		if err := q.Close(); err != nil {
			return err
		}
		// Roll the log back to its pre-compaction content: the snapshot is
		// now one generation ahead, exactly the state a crash between
		// snapshot publish and log rotation leaves behind.
		if err := os.WriteFile(logPath, before, 0o644); err != nil {
			return err
		}
	}
	store, err := campaign.OpenStore(h.dir)
	if err != nil {
		return err
	}
	opts := h.opts
	opts.Store = store
	co, err := cluster.NewCoordinator(opts)
	if err != nil {
		return err
	}
	co.Observe(h.observe)
	h.co = co
	for _, name := range h.order {
		co.RegisterNode(name, h.nodes[name].capacity)
	}
	for _, id := range h.campaigns {
		if err := co.Resume(id); err != nil {
			return err
		}
	}
	return nil
}

// applyDue applies every action triggered since the previous round, in
// trigger order.
func (h *Harness) applyDue(round int) {
	due := h.due
	h.due = nil
	for _, act := range due {
		h.log = append(h.log, fmt.Sprintf("act r%02d %s", round, act.Describe()))
		switch a := act.(type) {
		case Kill:
			if n, ok := h.nodes[a.Node]; ok {
				if a.MidRun {
					n.killMidRun = true
				} else {
					n.alive = false
				}
			}
		case Stall:
			if n, ok := h.nodes[a.Node]; ok {
				n.stalled = a.Rounds
			}
		case DuplicateComplete:
			if len(h.completes) > 0 {
				last := h.completes[len(h.completes)-1]
				if err := h.co.CompleteRuns(last.node, []cluster.CompletionReport{{Lease: last.lease, Outcome: last.out}})[0]; err != nil {
					h.stale++
					h.log = append(h.log, fmt.Sprintf("act r%02d duplicate-rejected %s", round, shortKey(last.key)))
				}
			}
		case RestartCoordinator:
			if err := h.restartCoordinator(a.CrashCompaction); err != nil {
				h.log = append(h.log, fmt.Sprintf("act r%02d restart-failed %v", round, err))
			}
		case CorruptEntry:
			if len(h.completes) > 0 {
				last := h.completes[len(h.completes)-1]
				path := filepath.Join(h.dir, last.key, "result.canonical")
				if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
					data[len(data)/2] ^= 0xff
					if os.WriteFile(path, data, 0o644) == nil {
						h.log = append(h.log, fmt.Sprintf("act r%02d corrupted %s", round, shortKey(last.key)))
					}
				}
			}
		}
	}
}

// allDone reports whether every submitted campaign finished.
func (h *Harness) allDone() bool {
	for _, id := range h.campaigns {
		c, err := h.co.Campaign(id)
		if err != nil || !c.Status().Done {
			return false
		}
	}
	return true
}
