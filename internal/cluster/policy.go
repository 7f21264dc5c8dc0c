package cluster

import "fmt"

// PendingRun is the policy-facing projection of one queued run.
type PendingRun struct {
	Ref string
	Key string
	// Group is the fingerprint of the run's world — environment and seed
	// (RunSpec.GroupKey) — the affinity signal.
	Group string
}

// NodeStats is the policy-facing projection of one registered node.
type NodeStats struct {
	Name     string
	Alive    bool
	Inflight int
	Capacity int
	// Granted counts every lease the node was ever granted; Executed and
	// Cached count its finished runs.
	Granted  int
	Executed int
	Cached   int
	// Groups lists, sorted, the world groups the node has already run —
	// what config-affinity routes on.
	Groups []string
}

// Policy decides which pending run (if any) a requesting node receives.
// Policies MUST be pure functions of their arguments: given the same
// (pending, nodes, node) they return the same index. The coordinator
// holds its lock across the call, so a policy must not call back into
// the coordinator or queue. Returning -1 defers the node — it receives
// nothing this round.
type Policy interface {
	Name() string
	Pick(pending []PendingRun, nodes []NodeStats, node string) int
}

// PolicyByName resolves a policy label from config/CLI flags.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "round-robin":
		return RoundRobin{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "config-affinity":
		return ConfigAffinity{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q", name)
}

// RoundRobin spreads grants evenly: a node is deferred while some other
// alive node with spare capacity has strictly fewer lifetime grants, so
// grant counts level out across the fleet.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (RoundRobin) Pick(pending []PendingRun, nodes []NodeStats, node string) int {
	if len(pending) == 0 {
		return -1
	}
	var self *NodeStats
	for i := range nodes {
		if nodes[i].Name == node {
			self = &nodes[i]
			break
		}
	}
	if self == nil {
		return -1
	}
	for _, n := range nodes {
		if n.Name != node && n.Alive && n.Inflight < n.Capacity && n.Granted < self.Granted {
			return -1 // let the under-granted node catch up
		}
	}
	return 0
}

// LeastLoaded grants the queue head to whichever requester currently has
// the fewest runs in flight; busier nodes are deferred until the lightest
// ones are topped up.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(pending []PendingRun, nodes []NodeStats, node string) int {
	if len(pending) == 0 {
		return -1
	}
	var self *NodeStats
	minInflight := -1
	for i := range nodes {
		n := &nodes[i]
		if n.Name == node {
			self = n
		}
		if n.Alive && n.Inflight < n.Capacity {
			if minInflight < 0 || n.Inflight < minInflight {
				minInflight = n.Inflight
			}
		}
	}
	if self == nil || self.Inflight > minInflight {
		return -1
	}
	return 0
}

// ConfigAffinity routes runs that share a world group (same environment
// and seed; any strategy or fault plan) to the node that already ran that
// group — the process whose core world slot may still hold the world the
// run would otherwise regenerate. Runs whose group no node owns yet fall
// through in queue order, so the policy never stalls a node that has
// capacity.
type ConfigAffinity struct{}

// Name implements Policy.
func (ConfigAffinity) Name() string { return "config-affinity" }

// Pick implements Policy.
func (ConfigAffinity) Pick(pending []PendingRun, nodes []NodeStats, node string) int {
	if len(pending) == 0 {
		return -1
	}
	owned := make(map[string]string) // group -> owning node
	for _, n := range nodes {
		if !n.Alive {
			continue
		}
		for _, g := range n.Groups {
			if _, taken := owned[g]; !taken || n.Name == node {
				owned[g] = n.Name
			}
		}
	}
	// First choice: a run whose group this node already owns.
	for i, p := range pending {
		if owned[p.Group] == node {
			return i
		}
	}
	// Second: a run nobody owns — claim the group for this node.
	for i, p := range pending {
		if _, taken := owned[p.Group]; !taken {
			return i
		}
	}
	// Everything pending belongs to other nodes' groups; take the head
	// rather than idle (affinity is a preference, not a partition).
	return 0
}
