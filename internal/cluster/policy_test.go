package cluster

import (
	"fmt"
	"testing"

	"roadrunner/internal/campaign"
)

// Routing policies must be pure functions of (queue state, node stats):
// same inputs, same pick, no mutation, no hidden state. The chaos
// harness's determinism rests on this, so it is pinned here as a
// property over a grid of synthetic cluster states.

func policyFixtures() ([][]PendingRun, [][]NodeStats) {
	pendings := [][]PendingRun{
		{},
		{{Ref: "c1/a", Key: "a", Group: "g1"}},
		{
			{Ref: "c1/a", Key: "a", Group: "g1"},
			{Ref: "c1/b", Key: "b", Group: "g2"},
			{Ref: "c1/c", Key: "c", Group: "g1"},
		},
	}
	nodeSets := [][]NodeStats{
		{
			{Name: "w1", Alive: true, Capacity: 2},
			{Name: "w2", Alive: true, Capacity: 2},
		},
		{
			{Name: "w1", Alive: true, Capacity: 2, Inflight: 2, Granted: 4},
			{Name: "w2", Alive: true, Capacity: 2, Granted: 1, Groups: []string{"g1"}},
			{Name: "w3", Alive: false, Capacity: 2},
		},
		{
			{Name: "w1", Alive: true, Capacity: 1, Inflight: 1, Granted: 2, Groups: []string{"g2"}},
			{Name: "w2", Alive: true, Capacity: 4, Inflight: 1, Granted: 3, Groups: []string{"g1"}},
		},
	}
	return pendings, nodeSets
}

func copyPending(in []PendingRun) []PendingRun { return append([]PendingRun(nil), in...) }

func copyNodes(in []NodeStats) []NodeStats {
	out := append([]NodeStats(nil), in...)
	for i := range out {
		out[i].Groups = append([]string(nil), out[i].Groups...)
	}
	return out
}

func nodesEqual(a, b []NodeStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Alive != b[i].Alive ||
			a[i].Inflight != b[i].Inflight || a[i].Capacity != b[i].Capacity ||
			a[i].Granted != b[i].Granted || len(a[i].Groups) != len(b[i].Groups) {
			return false
		}
		for j := range a[i].Groups {
			if a[i].Groups[j] != b[i].Groups[j] {
				return false
			}
		}
	}
	return true
}

// TestPoliciesArePureFunctions calls every policy repeatedly over a grid
// of (pending, nodes, requester) states: picks must be identical across
// calls, in range, and the inputs must come back unmodified.
func TestPoliciesArePureFunctions(t *testing.T) {
	pendings, nodeSets := policyFixtures()
	for _, pol := range []Policy{RoundRobin{}, LeastLoaded{}, ConfigAffinity{}} {
		for pi, pending := range pendings {
			for ni, nodes := range nodeSets {
				for _, requester := range []string{"w1", "w2", "w3", "ghost"} {
					name := fmt.Sprintf("%s/p%d/n%d/%s", pol.Name(), pi, ni, requester)
					t.Run(name, func(t *testing.T) {
						pSnap, nSnap := copyPending(pending), copyNodes(nodes)
						first := pol.Pick(copyPending(pending), copyNodes(nodes), requester)
						for rep := 0; rep < 3; rep++ {
							p, n := copyPending(pending), copyNodes(nodes)
							got := pol.Pick(p, n, requester)
							if got != first {
								t.Fatalf("pick changed across identical calls: %d then %d", first, got)
							}
							if !nodesEqual(n, nSnap) || len(p) != len(pSnap) {
								t.Fatal("policy mutated its inputs")
							}
						}
						if first < -1 || first >= len(pending) {
							t.Fatalf("pick %d out of range for %d pending", first, len(pending))
						}
						if len(pending) == 0 && first != -1 {
							t.Fatalf("pick %d from an empty queue", first)
						}
					})
				}
			}
		}
	}
}

func TestRoundRobinDefersToUnderGrantedNodes(t *testing.T) {
	pending := []PendingRun{{Ref: "c1/a", Key: "a"}}
	nodes := []NodeStats{
		{Name: "w1", Alive: true, Capacity: 2, Granted: 3},
		{Name: "w2", Alive: true, Capacity: 2, Granted: 0},
	}
	if got := (RoundRobin{}).Pick(pending, nodes, "w1"); got != -1 {
		t.Fatalf("w1 granted ahead of under-granted w2: pick %d", got)
	}
	if got := (RoundRobin{}).Pick(pending, nodes, "w2"); got != 0 {
		t.Fatalf("under-granted w2 deferred: pick %d", got)
	}
	// A dead or saturated peer does not hold the grant hostage.
	nodes[1].Alive = false
	if got := (RoundRobin{}).Pick(pending, nodes, "w1"); got != 0 {
		t.Fatalf("w1 deferred to a dead node: pick %d", got)
	}
}

func TestLeastLoadedGrantsTheLightestNode(t *testing.T) {
	pending := []PendingRun{{Ref: "c1/a", Key: "a"}}
	nodes := []NodeStats{
		{Name: "w1", Alive: true, Capacity: 4, Inflight: 3},
		{Name: "w2", Alive: true, Capacity: 4, Inflight: 1},
	}
	if got := (LeastLoaded{}).Pick(pending, nodes, "w1"); got != -1 {
		t.Fatalf("heavier node granted: pick %d", got)
	}
	if got := (LeastLoaded{}).Pick(pending, nodes, "w2"); got != 0 {
		t.Fatalf("lightest node deferred: pick %d", got)
	}
}

func TestConfigAffinityRoutesGroupsToTheirOwners(t *testing.T) {
	pending := []PendingRun{
		{Ref: "c1/a", Key: "a", Group: "g1"},
		{Ref: "c1/b", Key: "b", Group: "g2"},
	}
	nodes := []NodeStats{
		{Name: "w1", Alive: true, Capacity: 2, Groups: []string{"g2"}},
		{Name: "w2", Alive: true, Capacity: 2, Groups: []string{"g1"}},
	}
	if got := (ConfigAffinity{}).Pick(pending, nodes, "w1"); got != 1 {
		t.Fatalf("w1 should take its own group g2 (index 1), picked %d", got)
	}
	if got := (ConfigAffinity{}).Pick(pending, nodes, "w2"); got != 0 {
		t.Fatalf("w2 should take its own group g1 (index 0), picked %d", got)
	}
	// A node owning nothing claims the first unowned group, or falls back
	// to the head rather than idling.
	fresh := []NodeStats{{Name: "w3", Alive: true, Capacity: 2}}
	if got := (ConfigAffinity{}).Pick(pending, fresh, "w3"); got != 0 {
		t.Fatalf("unowned groups should go to the requester: pick %d", got)
	}
	owned := append(copyNodes(nodes), NodeStats{Name: "w3", Alive: true, Capacity: 2})
	if got := (ConfigAffinity{}).Pick(pending, owned, "w3"); got != 0 {
		t.Fatalf("affinity must not stall a capacious node: pick %d", got)
	}
}

// TestConfigAffinityKeepsASeedsRunsTogether expands a Figure-4-shaped
// manifest (strategy-major, so a seed's runs are not adjacent in the queue)
// and checks what the real group keys make the policy do: a node that ran
// one cell of a seed is handed that seed's other strategy × scenario cells
// — the runs that share its world — before anything else.
func TestConfigAffinityKeepsASeedsRunsTogether(t *testing.T) {
	m := campaign.Manifest{
		Name: "affinity", Env: campaign.EnvTiny, Rounds: 1,
		Strategies: []campaign.StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{1, 2},
		Scenarios:  []string{campaign.ScenarioFaultFree, "blackout"},
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seedOf := make(map[string]uint64)
	groupOf := make(map[uint64]string)
	var pending []PendingRun
	for _, s := range specs {
		g, err := s.GroupKey()
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := groupOf[s.Config.Seed]; ok && prev != g {
			t.Fatalf("seed %d spans groups %s and %s", s.Config.Seed, prev, g)
		}
		groupOf[s.Config.Seed] = g
		seedOf[s.Name] = s.Config.Seed
		pending = append(pending, PendingRun{Ref: s.Name, Key: s.Name, Group: g})
	}
	if groupOf[1] == groupOf[2] {
		t.Fatal("two seeds share a world group")
	}
	nodes := []NodeStats{
		{Name: "w1", Alive: true, Capacity: 1, Groups: []string{groupOf[2]}},
		{Name: "w2", Alive: true, Capacity: 1, Groups: []string{groupOf[1]}},
	}
	want := map[string]uint64{"w1": 2, "w2": 1}
	for len(pending) > 0 {
		for _, n := range nodes {
			i := (ConfigAffinity{}).Pick(pending, nodes, n.Name)
			if got := seedOf[pending[i].Ref]; got != want[n.Name] {
				t.Fatalf("%s was handed %s (seed %d) while its own seed %d had runs pending", n.Name, pending[i].Ref, got, want[n.Name])
			}
			pending = append(pending[:i], pending[i+1:]...)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "round-robin", "least-loaded", "config-affinity"} {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
	}
	if _, err := PolicyByName("coin-flip"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
