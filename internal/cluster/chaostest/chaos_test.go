package chaostest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/campaign/campaigntest"
	"roadrunner/internal/cluster"
)

// chaosManifest is the tiny-scale workload all chaos scenarios run: two
// strategies crossed with the given seeds, 2 rounds each.
func chaosManifest(seeds ...uint64) campaign.Manifest {
	return campaign.Manifest{
		Name:   "chaos",
		Env:    campaign.EnvTiny,
		Rounds: 2,
		Strategies: []campaign.StrategySpec{
			{Kind: "fedavg"},
			{Kind: "opp"},
		},
		Seeds: seeds,
	}
}

// runCluster assembles a 3-node harness over a fresh shared store,
// submits the manifest, runs the script to completion, and returns the
// harness plus campaign ID.
func runCluster(t *testing.T, m campaign.Manifest, cfg Config) (*Harness, string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []NodeConfig{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}}
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	id, err := h.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(); err != nil {
		t.Fatalf("cluster run failed: %v\nlog:\n%s", err, logText(h))
	}
	return h, id
}

func logText(h *Harness) string {
	var buf bytes.Buffer
	for _, line := range h.Log() {
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// assertHealthyFinish checks the campaign finished with zero failures
// and its merged artifact is byte-identical to the single-node
// reference.
func assertHealthyFinish(t *testing.T, h *Harness, id string, want []byte) {
	t.Helper()
	c, err := h.Coordinator().Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if !st.Done || st.Failed != 0 {
		t.Fatalf("campaign not cleanly done: %+v\nlog:\n%s", st, logText(h))
	}
	got, err := h.MergedResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged artifact differs from single-node reference (%d vs %d bytes)\nlog:\n%s",
			len(got), len(want), logText(h))
	}
}

// TestClusterKillWorkerMatchesSingleNode is the headline chaos scenario:
// a 3-node campaign loses one worker after its first completion, the
// survivors absorb the re-queued work, and the merged canonical result
// is byte-identical to a single-node run of the same manifest.
func TestClusterKillWorkerMatchesSingleNode(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		Script: Script{
			{On: Trigger{Event: "complete", N: 1, Node: "w2"}, Do: Kill{Node: "w2"}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times", key, n)
		}
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterMidRunCrashRecovers kills a worker between the Start gate
// and its completion report — the crash-mid-run case. The orphaned
// started lease must expire, the run re-queues, a survivor executes it,
// and the run key still executes at most once (the victim never ran it).
func TestClusterMidRunCrashRecovers(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		Script: Script{
			{On: Trigger{Event: "complete", N: 1, Node: "w3"}, Do: Kill{Node: "w3", MidRun: true}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times after mid-run crash", key, n)
		}
	}
	sawExpiry := false
	for _, line := range h.Log() {
		if bytes.Contains([]byte(line), []byte("lease-expired w3")) {
			sawExpiry = true
		}
	}
	if !sawExpiry {
		t.Fatalf("mid-run crash never expired the orphaned lease\nlog:\n%s", logText(h))
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterStealFromStalledNode stalls a node sitting on an unstarted
// backlog claim; an idle survivor must steal it instead of waiting for
// lease expiry. ConfigAffinity grants up to capacity per round, which is
// what builds the stealable backlog.
func TestClusterStealFromStalledNode(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		Policy: cluster.ConfigAffinity{},
		Script: Script{
			{On: Trigger{Event: "claim", N: 1, Node: "w2"}, Do: Stall{Node: "w2", Rounds: 8}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	sawSteal := false
	for _, line := range h.Log() {
		if bytes.Contains([]byte(line), []byte(" steal ")) {
			sawSteal = true
		}
	}
	if !sawSteal {
		t.Fatalf("stalled backlog was never stolen\nlog:\n%s", logText(h))
	}
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times after steal", key, n)
		}
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterDuplicateCompleteIsIdempotent replays a completion report —
// the retried-RPC case. The coordinator must reject the duplicate as a
// stale lease and the campaign must finish byte-identical anyway.
func TestClusterDuplicateCompleteIsIdempotent(t *testing.T) {
	m := chaosManifest(1, 2)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		Script: Script{
			{On: Trigger{Event: "complete", N: 1}, Do: DuplicateComplete{}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	if h.StaleCompletes() == 0 {
		t.Fatalf("duplicated completion was not rejected\nlog:\n%s", logText(h))
	}
}

// TestClusterCorruptEntrySelfHeals flips a byte inside a completed run's
// stored bytes; verify-on-read must evict the damaged entry and the
// merge must re-execute it, landing on the reference bytes regardless.
func TestClusterCorruptEntrySelfHeals(t *testing.T) {
	m := chaosManifest(1, 2)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		Script: Script{
			{On: Trigger{Event: "complete", N: 1}, Do: CorruptEntry{}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	if n := h.Coordinator().Store().Corruptions(); n == 0 {
		t.Fatalf("corrupted entry was never detected\nlog:\n%s", logText(h))
	}
}

// TestClusterChaosScriptReproducible runs the identical script twice on
// fresh stores: the harness must take the identical assertion path —
// event-for-event identical logs — which is what "deterministic chaos
// harness" means. No wall-clock sleeps exist to perturb it.
func TestClusterChaosScriptReproducible(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	script := Script{
		{On: Trigger{Event: "complete", N: 2}, Do: Kill{Node: "w1"}},
		{On: Trigger{Event: "complete", N: 3}, Do: DuplicateComplete{}},
	}
	var logs [][]string
	for i := 0; i < 2; i++ {
		h, _ := runCluster(t, m, Config{Script: append(Script(nil), script...)})
		logs = append(logs, h.Log())
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("log lengths differ across identical runs: %d vs %d", len(logs[0]), len(logs[1]))
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("assertion path diverged at line %d: %q vs %q", i, logs[0][i], logs[1][i])
		}
	}
}

// TestClusterPolicySweep runs the same fault-free campaign under every
// routing policy: routing changes who executes what, never the merged
// bytes.
func TestClusterPolicySweep(t *testing.T) {
	m := chaosManifest(1, 2)
	want := campaigntest.LibraryReference(t, m)
	for _, pol := range []cluster.Policy{cluster.RoundRobin{}, cluster.LeastLoaded{}, cluster.ConfigAffinity{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			h, id := runCluster(t, m, Config{Policy: pol})
			assertHealthyFinish(t, h, id, want)
		})
	}
}

// TestClusterKillInterleavingsNeverDoubleExecute enumerates the fault
// space deterministically: kill each node after each of the first three
// completions. In every interleaving the campaign completes with the
// reference bytes and no run key executes more than once — the property
// the steal-only-unstarted and start-gate rules exist to uphold.
func TestClusterKillInterleavingsNeverDoubleExecute(t *testing.T) {
	m := chaosManifest(1, 2)
	want := campaigntest.LibraryReference(t, m)
	for _, node := range []string{"w1", "w2", "w3"} {
		for j := 1; j <= 3; j++ {
			for _, midRun := range []bool{false, true} {
				name := fmt.Sprintf("kill-%s-after-%d-midrun-%v", node, j, midRun)
				t.Run(name, func(t *testing.T) {
					h, id := runCluster(t, m, Config{
						Script: Script{
							{On: Trigger{Event: "complete", N: j}, Do: Kill{Node: node, MidRun: midRun}},
						},
					})
					assertHealthyFinish(t, h, id, want)
					for key, n := range h.ExecCounts() {
						if n > 1 {
							t.Fatalf("run %.8s executed %d times", key, n)
						}
					}
					checkQueueLogInvariants(t, h)
				})
			}
		}
	}
}

// queueLogOps collects the set of record ops in the durable queue log.
func queueLogOps(t *testing.T, h *Harness) map[string]int {
	t.Helper()
	recs, err := campaign.ReadQueueLog(h.Coordinator().Store().QueueLogPath())
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]int)
	for _, r := range recs {
		ops[r.Op]++
	}
	return ops
}

// TestClusterBatchedVerbsMatchSingleNode drives a fault-free campaign
// entirely through the batched protocol verbs: claims, starts, and
// completes each journal one multi-ref record per node round, and the
// merged artifact must still be byte-identical to the single-node
// reference.
func TestClusterBatchedVerbsMatchSingleNode(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{GateBacklog: true})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times under batched verbs", key, n)
		}
	}
	checkQueueLogInvariants(t, h)
	ops := queueLogOps(t, h)
	for _, op := range []string{"enqueue-batch", "claim-batch", "start-batch", "complete-batch"} {
		if ops[op] == 0 {
			t.Fatalf("queue log never recorded %s; ops seen: %v", op, ops)
		}
	}
}

// TestClusterKillMidBatchRecovers kills a node right after it gates a
// whole batch of claims through StartRuns — every started lease in the
// batch is orphaned at once. Lease expiry must re-queue them all, the
// survivors absorb the work, and no run key executes twice.
func TestClusterKillMidBatchRecovers(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		GateBacklog: true,
		Script: Script{
			{On: Trigger{Event: "complete", N: 1, Node: "w2"}, Do: Kill{Node: "w2", MidRun: true}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times after mid-batch kill", key, n)
		}
	}
	if !strings.Contains(logText(h), "died-mid-batch w2") {
		t.Fatalf("script never killed w2 mid-batch\nlog:\n%s", logText(h))
	}
	if !strings.Contains(logText(h), "lease-expired w2") {
		t.Fatalf("orphaned batch leases never expired\nlog:\n%s", logText(h))
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterCompactionAndRestartMidCampaign runs a batched campaign
// with an aggressive compaction threshold and restarts the coordinator
// mid-flight: the restarted queue must recover from snapshot + log tail
// (not a full-log replay), resume the campaign, and still merge to the
// single-node reference bytes.
func TestClusterCompactionAndRestartMidCampaign(t *testing.T) {
	m := chaosManifest(1, 2, 3, 4)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		GateBacklog:  true,
		CompactEvery: 8,
		Script: Script{
			{On: Trigger{Event: "complete", N: 3}, Do: RestartCoordinator{}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times across restart", key, n)
		}
	}
	snap, err := campaign.ReadQueueSnapshot(h.Coordinator().Store().QueueSnapshotPath())
	if err != nil {
		t.Fatalf("compaction never published a snapshot: %v", err)
	}
	if snap.Gen == 0 {
		t.Fatalf("snapshot carries generation 0")
	}
	if !h.Coordinator().QueueReplayStats().UsedSnapshot {
		t.Fatalf("restarted coordinator ignored the snapshot and replayed the full log")
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterCrashDuringCompactionRecovers manufactures the crash window
// inside compaction — snapshot published, log rotation lost — and
// restarts the coordinator into it. Recovery must detect the snapshot
// generation ahead of the log, finish the rotation itself, and the
// campaign must complete byte-identical regardless.
func TestClusterCrashDuringCompactionRecovers(t *testing.T) {
	m := chaosManifest(1, 2, 3)
	want := campaigntest.LibraryReference(t, m)
	h, id := runCluster(t, m, Config{
		GateBacklog:  true,
		CompactEvery: -1, // the only snapshot is the crash-simulated one
		Script: Script{
			{On: Trigger{Event: "complete", N: 2}, Do: RestartCoordinator{CrashCompaction: true}},
		},
	})
	assertHealthyFinish(t, h, id, want)
	for key, n := range h.ExecCounts() {
		if n > 1 {
			t.Fatalf("run %.8s executed %d times across mid-compaction crash", key, n)
		}
	}
	if !h.Coordinator().QueueReplayStats().UsedSnapshot {
		t.Fatalf("recovery ignored the published snapshot")
	}
	if strings.Contains(logText(h), "restart-failed") {
		t.Fatalf("coordinator restart failed\nlog:\n%s", logText(h))
	}
	checkQueueLogInvariants(t, h)
}

// TestClusterBackpressureCapsAdmission exercises the admission cap: a
// manifest that would push outstanding work past MaxOutstanding is
// rejected whole with ErrBacklogFull (no partial enqueue, safe to
// resubmit verbatim), a fitting manifest is admitted, and completed work
// frees capacity for the previously rejected one.
func TestClusterBackpressureCapsAdmission(t *testing.T) {
	small := chaosManifest(1, 2)  // 4 runs
	big := chaosManifest(3, 4, 5) // 6 runs
	wantSmall := campaigntest.LibraryReference(t, small)
	wantBig := campaigntest.LibraryReference(t, big)
	h, err := New(Config{
		Dir:            t.TempDir(),
		Nodes:          []NodeConfig{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}},
		GateBacklog:    true,
		MaxOutstanding: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	idSmall, err := h.Submit(small)
	if err != nil {
		t.Fatalf("fitting manifest rejected: %v", err)
	}
	if _, err := h.Submit(big); !errors.Is(err, cluster.ErrBacklogFull) {
		t.Fatalf("over-cap manifest: got %v, want ErrBacklogFull", err)
	}
	if err := h.Run(); err != nil {
		t.Fatalf("cluster run failed: %v\nlog:\n%s", err, logText(h))
	}
	assertHealthyFinish(t, h, idSmall, wantSmall)
	// The backlog drained; the previously rejected manifest now fits.
	idBig, err := h.Submit(big)
	if err != nil {
		t.Fatalf("resubmit after drain rejected: %v", err)
	}
	if err := h.Run(); err != nil {
		t.Fatalf("cluster run failed: %v\nlog:\n%s", err, logText(h))
	}
	assertHealthyFinish(t, h, idBig, wantBig)
	checkQueueLogInvariants(t, h)
}

// checkQueueLogInvariants replays the durable queue evidence trail —
// snapshot (if a compaction ran) plus log tail — and asserts the lease
// rules held at every step: one enqueue per ref, at most one live lease
// per ref, claims only from pending, steals/expiries only against a live
// lease, starts and completes only from the live lease, and completion
// exactly once. Batched records expand into the same per-ref transitions
// as their single-ref verbs; a lease replayed across a coordinator
// restart is invalidated exactly as recovery would invalidate it.
func checkQueueLogInvariants(t *testing.T, h *Harness) {
	t.Helper()
	store := h.Coordinator().Store()
	recs, err := campaign.ReadQueueLog(store.QueueLogPath())
	if err != nil {
		t.Fatal(err)
	}
	type refState struct {
		enqueued bool
		lease    campaign.LeaseID
		live     bool
		done     bool
	}
	refs := make(map[string]*refState)
	get := func(ref string) *refState {
		if refs[ref] == nil {
			refs[ref] = &refState{}
		}
		return refs[ref]
	}
	// A rotated log starts from its snapshot: seed per-ref state there —
	// done refs completed before the snapshot; everything else returns to
	// pending (live leases are never snapshotted).
	var haveSnap bool
	var snapGen uint64
	snap, err := campaign.ReadQueueSnapshot(store.QueueSnapshotPath())
	switch {
	case err == nil:
		haveSnap, snapGen = true, snap.Gen
		for _, it := range snap.Items {
			st := get(it.Ref)
			st.enqueued = true
			if _, done := snap.Done[it.Ref]; done {
				st.done = true
			}
		}
	case errors.Is(err, os.ErrNotExist):
	default:
		t.Fatal(err)
	}
	step := func(i int, op, ref string, lease campaign.LeaseID) {
		st := get(ref)
		switch op {
		case "enqueue":
			if st.enqueued {
				t.Fatalf("record %d: ref %.12s enqueued twice", i, ref)
			}
			st.enqueued = true
		case "claim":
			if !st.enqueued || st.live || st.done {
				t.Fatalf("record %d: claim of non-pending ref %.12s", i, ref)
			}
			st.lease, st.live = lease, true
		case "steal":
			if !st.live {
				t.Fatalf("record %d: steal without a live lease on %.12s", i, ref)
			}
			st.lease = lease
		case "expire":
			if !st.live || lease != st.lease {
				t.Fatalf("record %d: expire of non-live lease %d on %.12s", i, lease, ref)
			}
			st.live = false
		case "start":
			if !st.live || lease != st.lease {
				t.Fatalf("record %d: start from stale lease %d on %.12s", i, lease, ref)
			}
		case "complete":
			if !st.live || lease != st.lease || st.done {
				t.Fatalf("record %d: invalid complete (lease %d) on %.12s", i, lease, ref)
			}
			st.live, st.done = false, true
		case "retry":
			if !st.enqueued || !st.done || st.live {
				t.Fatalf("record %d: retry of non-terminal ref %.12s", i, ref)
			}
			st.done = false
		}
	}
	// invalidateLeases mirrors recovery: reopening the queue returns every
	// live lease's ref to pending, so post-restart claims are legal.
	invalidateLeases := func() {
		for _, st := range refs {
			st.live = false
		}
	}
	claimed := make(map[campaign.LeaseID]bool)
	seenGen := false
	for i, r := range recs {
		switch r.Op {
		case "gen":
			// The generation marker heads a rotated log; its generation must
			// match the snapshot it extends, and any records before it belong
			// to the superseded epoch recovery discarded.
			if i != 0 {
				t.Fatalf("record %d: gen marker mid-log", i)
			}
			if !haveSnap || r.Gen != snapGen {
				t.Fatalf("record %d: log generation %d does not match snapshot (have=%v gen=%d)", i, r.Gen, haveSnap, snapGen)
			}
			invalidateLeases()
		case "enqueue-batch", "claim-batch", "start-batch", "complete-batch", "expire-batch":
			base := strings.TrimSuffix(r.Op, "-batch")
			for _, e := range r.Batch {
				if base == "claim" {
					if claimed[e.Lease] {
						t.Fatalf("record %d: lease ID %d granted twice", i, e.Lease)
					}
					claimed[e.Lease] = true
					// A claim of a ref whose lease died with a previous epoch is
					// legal evidence of a coordinator restart: replay invalidated
					// the lease. Strictly-increasing lease IDs (checked above)
					// keep this from excusing genuine double grants.
					if st := get(e.Ref); st.live && !st.done {
						st.live = false
					}
				}
				step(i, base, e.Ref, e.Lease)
			}
		case "claim":
			if claimed[r.Lease] {
				t.Fatalf("record %d: lease ID %d granted twice", i, r.Lease)
			}
			claimed[r.Lease] = true
			if st := get(r.Ref); st.live && !st.done {
				st.live = false
			}
			step(i, r.Op, r.Ref, r.Lease)
		default:
			step(i, r.Op, r.Ref, r.Lease)
		}
		if r.Op == "gen" {
			seenGen = true
		}
	}
	if haveSnap && !seenGen {
		t.Fatalf("snapshot exists but the log carries no gen marker")
	}
	for ref, st := range refs {
		if !st.done {
			t.Fatalf("ref %.12s never completed in queue log", ref)
		}
	}
}
