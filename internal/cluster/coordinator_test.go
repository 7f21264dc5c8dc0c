package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/campaign/campaigntest"
)

func tinyClusterManifest() campaign.Manifest {
	return campaign.Manifest{
		Name:   "cluster-tiny",
		Env:    campaign.EnvTiny,
		Rounds: 2,
		Strategies: []campaign.StrategySpec{
			{Kind: "fedavg"},
			{Kind: "opp"},
		},
		Seeds: []uint64{1},
	}
}

func newTestCoordinator(t *testing.T, dir string) *Coordinator {
	t.Helper()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// startRun and completeRun speak the batch verbs with a batch of one.
func startRun(co *Coordinator, node string, id campaign.LeaseID) error {
	return co.StartRuns(node, []campaign.LeaseID{id})[0]
}

func completeRun(co *Coordinator, node string, id campaign.LeaseID, out Outcome) error {
	return co.CompleteRuns(node, []CompletionReport{{Lease: id, Outcome: out}})[0]
}

// drive runs the full worker protocol — claim, start, execute, complete
// — for one node until it receives no work.
func drive(t *testing.T, co *Coordinator, runner *Runner, node string) int {
	t.Helper()
	ran := 0
	for {
		asgs, err := co.RequestWork(node, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(asgs) == 0 {
			return ran
		}
		for _, asg := range asgs {
			if err := startRun(co, node, asg.Lease); err != nil {
				continue
			}
			if err := completeRun(co, node, asg.Lease, runner.Run(asg)); err != nil {
				t.Fatal(err)
			}
			ran++
		}
	}
}

// TestCoordinatorRequiresStore: the queue log and the journals live in
// the store, so there is no coordinator — and no resume — without one.
func TestCoordinatorRequiresStore(t *testing.T) {
	if _, err := NewCoordinator(Options{}); err == nil {
		t.Fatal("coordinator built without a store")
	}
}

// TestCoordinatorSingleWorkerLifecycle walks one node through the whole
// protocol and checks the campaign lands done with a journal that makes
// it resumable.
func TestCoordinatorSingleWorkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	if ran := drive(t, co, runner, "w1"); ran != 2 {
		t.Fatalf("worker ran %d assignments, want 2", ran)
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if !st.Done || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("campaign status: %+v", st)
	}
	// The journal is the manifest record alone: the runs' outcomes live
	// in the store and the queue log.
	assertJournalIsManifest(t, co, id)
	nodes := co.Nodes()
	if len(nodes) != 1 || nodes[0].Executed != 2 || nodes[0].Inflight != 0 {
		t.Fatalf("node stats: %+v", nodes)
	}
}

// TestCoordinatorCachedSubmitFinishesWithoutClaims submits a manifest
// whose every run is already in the shared store: the campaign must
// finish instantly as pure cache hits, enqueueing nothing.
func TestCoordinatorCachedSubmitFinishesWithoutClaims(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	if _, err := co.Submit(tinyClusterManifest()); err != nil {
		t.Fatal(err)
	}
	drive(t, co, runner, "w1")

	// A repeated seed expands to duplicate specs sharing one ref; every
	// one of them is a cache hit.
	warm := tinyClusterManifest()
	warm.Seeds = []uint64{1, 1}
	id2, err := co.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	c, err := co.Campaign(id2)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if !st.Done || st.Cached != 4 || st.Queued != 0 {
		t.Fatalf("warm resubmission not a pure cache pass: %+v", st)
	}
	if asgs, _ := co.RequestWork("w1", 4); len(asgs) != 0 {
		t.Fatalf("warm resubmission enqueued work: %+v", asgs)
	}
}

// TestCoordinatorResumeAfterRestart kills the coordinator mid-campaign
// and recovers on a fresh one: journal + queue log must leave only the
// unfinished run claimable, and the merged artifact must match a
// clean-run reference.
func TestCoordinatorResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 1)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	// Execute exactly one of the two runs, then "crash" the coordinator.
	asgs, err := co.RequestWork("w1", 1)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("claim: %v %v", asgs, err)
	}
	if err := startRun(co, "w1", asgs[0].Lease); err != nil {
		t.Fatal(err)
	}
	if err := completeRun(co, "w1", asgs[0].Lease, runner.Run(asgs[0])); err != nil {
		t.Fatal(err)
	}
	co.Close()

	co2 := newTestCoordinator(t, dir)
	co2.RegisterNode("w1", 1)
	if err := co2.Resume(id); err != nil {
		t.Fatal(err)
	}
	c, err := co2.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Cached != 1 || st.Done {
		t.Fatalf("resumed status before re-execution: %+v", st)
	}
	if ran := drive(t, co2, runner, "w1"); ran != 1 {
		t.Fatalf("resume re-ran %d assignments, want 1", ran)
	}
	if st := c.Status(); !st.Done || st.Failed != 0 {
		t.Fatalf("resumed campaign status: %+v", st)
	}
	got, err := co2.MergedResult(id)
	if err != nil {
		t.Fatal(err)
	}
	want := campaigntest.LibraryReference(t, tinyClusterManifest())
	if string(got) != string(want) {
		t.Fatalf("resumed merge differs from reference (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCoordinatorResumeRetriesUnstoredTerminalRuns is the resume-hang
// regression: a run that is terminal in the queue log but absent from
// the store (here a completion demoted to failed) must be re-issued on
// resume, not silently counted as outstanding forever. Before the fix,
// Enqueue was a no-op for the known ref while remaining was still
// incremented, so no lease was ever granted and the campaign never
// finished.
func TestCoordinatorResumeRetriesUnstoredTerminalRuns(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 1)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	// Execute the first run properly; report the second done without a
	// store publish so the coordinator demotes it to failed — a ref that
	// is terminal in the queue log with nothing servable in the store.
	for i := 0; i < 2; i++ {
		asgs, err := co.RequestWork("w1", 1)
		if err != nil || len(asgs) != 1 {
			t.Fatalf("claim %d: %v %v", i, asgs, err)
		}
		if err := startRun(co, "w1", asgs[0].Lease); err != nil {
			t.Fatal(err)
		}
		out := Outcome{State: campaign.RunDone, Attempts: 1}
		if i == 0 {
			out = runner.Run(asgs[0])
		}
		if err := completeRun(co, "w1", asgs[0].Lease, out); err != nil {
			t.Fatal(err)
		}
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.Done || st.Failed != 1 {
		t.Fatalf("pre-crash status: %+v", st)
	}
	co.Close()

	co2 := newTestCoordinator(t, dir)
	co2.RegisterNode("w1", 1)
	if err := co2.Resume(id); err != nil {
		t.Fatal(err)
	}
	// The failed run must be claimable again and the campaign must finish.
	if ran := drive(t, co2, runner, "w1"); ran != 1 {
		t.Fatalf("resume re-ran %d assignments, want 1", ran)
	}
	c2, err := co2.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); !st.Done || st.Failed != 0 || st.Completed+st.Cached != 2 {
		t.Fatalf("resumed campaign status: %+v", st)
	}
	if _, err := co2.MergedResult(id); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRestartMintsFreshCampaignIDs: the ID sequence must
// survive a coordinator restart. Before the fix, the first submission of
// a new epoch reproduced the previous epoch's c0001-<hash> for the same
// manifest and silently re-attached to its journal and queue refs.
func TestCoordinatorRestartMintsFreshCampaignIDs(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	id1, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, co, runner, "w1")
	co.Close()

	co2 := newTestCoordinator(t, dir)
	co2.RegisterNode("w1", 2)
	id2, err := co2.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatalf("restarted coordinator reused campaign ID %s", id1)
	}
	// The new campaign is its own registration: warm store, pure cache
	// pass, and the old ID is resumable separately.
	c, err := co2.Campaign(id2)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.Done || st.Cached != 2 {
		t.Fatalf("new-epoch resubmission status: %+v", st)
	}
}

// TestCoordinatorRejectsForeignLeaseReports: start and completion are
// accepted only from the node holding the lease, so one node cannot
// complete another's claim or skew its counters.
func TestCoordinatorRejectsForeignLeaseReports(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 1)
	co.RegisterNode("w2", 1)
	if _, err := co.Submit(tinyClusterManifest()); err != nil {
		t.Fatal(err)
	}
	asgs, err := co.RequestWork("w1", 1)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("claim: %v %v", asgs, err)
	}
	if err := startRun(co, "w2", asgs[0].Lease); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("foreign start err = %v, want ErrStaleLease", err)
	}
	// Completing before the start gate is rejected even by the holder.
	if err := completeRun(co, "w1", asgs[0].Lease, Outcome{State: campaign.RunDone}); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("unstarted complete err = %v, want ErrStaleLease", err)
	}
	if err := startRun(co, "w1", asgs[0].Lease); err != nil {
		t.Fatal(err)
	}
	if err := completeRun(co, "w2", asgs[0].Lease, Outcome{State: campaign.RunDone}); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("foreign complete err = %v, want ErrStaleLease", err)
	}
	for _, n := range co.Nodes() {
		switch n.Name {
		case "w1":
			if n.Inflight != 1 {
				t.Fatalf("holder inflight = %d, want 1: %+v", n.Inflight, n)
			}
		case "w2":
			if n.Inflight != 0 || n.Executed != 0 {
				t.Fatalf("foreign node counters moved: %+v", n)
			}
		}
	}
}

// TestCoordinatorStealFreesVictimSlotExactlyOnce: after a steal, the
// victim's stale Start must not decrement its inflight a second time —
// the steal already released that slot. Before the fix the double
// decrement undercounted inflight, letting nodes claim past capacity.
func TestCoordinatorStealFreesVictimSlotExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	if _, err := co.Submit(tinyClusterManifest()); err != nil {
		t.Fatal(err)
	}
	// w1 claims both runs, then sits on them past StealAfter.
	asgs, err := co.RequestWork("w1", 2)
	if err != nil || len(asgs) != 2 {
		t.Fatalf("claim: %v %v", asgs, err)
	}
	co.RegisterNode("w2", 1)
	for i := 0; i < 4; i++ {
		co.Advance()
		if err := co.Heartbeat("w1"); err != nil {
			t.Fatal(err)
		}
	}
	stolen, err := co.RequestWork("w2", 1)
	if err != nil || len(stolen) != 1 {
		t.Fatalf("steal: %v %v", stolen, err)
	}
	// The victim tries to start the stolen assignment: stale, and its
	// inflight stays at the one claim it still holds.
	var victimLease campaign.LeaseID
	for _, asg := range asgs {
		if asg.Ref == stolen[0].Ref {
			victimLease = asg.Lease
		}
	}
	if err := startRun(co, "w1", victimLease); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("victim start err = %v, want ErrStaleLease", err)
	}
	for _, n := range co.Nodes() {
		if n.Name == "w1" && n.Inflight != 1 {
			t.Fatalf("victim inflight = %d after steal + stale start, want 1", n.Inflight)
		}
		if n.Name == "w2" && n.Inflight != 1 {
			t.Fatalf("thief inflight = %d, want 1", n.Inflight)
		}
	}
}

// TestCoordinatorDemotesUnstoredCompletion: a node reporting success
// without having published its result to the shared store is lying about
// durability; the coordinator must demote the run to failed.
func TestCoordinatorDemotesUnstoredCompletion(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 1)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	asgs, err := co.RequestWork("w1", 1)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("claim: %v %v", asgs, err)
	}
	if err := startRun(co, "w1", asgs[0].Lease); err != nil {
		t.Fatal(err)
	}
	// Report done without any store publish.
	if err := completeRun(co, "w1", asgs[0].Lease, Outcome{State: campaign.RunDone, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range c.Status().Runs {
		if run.Key == asgs[0].Key {
			if run.State != campaign.RunFailed || run.Error == "" {
				t.Fatalf("unstored completion not demoted: %+v", run)
			}
		}
	}
}

// TestCoordinatorRejectsUnknownNodes: claims and heartbeats require
// registration.
func TestCoordinatorRejectsUnknownNodes(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	if err := co.Heartbeat("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat err = %v", err)
	}
	if _, err := co.RequestWork("ghost", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("claim err = %v", err)
	}
	if _, err := co.Campaign("c9999-none"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("campaign err = %v", err)
	}
}

// TestCoordinatorMarksSilentNodesDead advances the clock past the lease
// TTL without heartbeats: the node must be declared dead and revive on
// its next heartbeat.
func TestCoordinatorMarksSilentNodesDead(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 1)
	var types []string
	co.Observe(func(ev Event) { types = append(types, ev.Type) })
	for i := 0; i < 7; i++ {
		co.Advance()
	}
	nodes := co.Nodes()
	if len(nodes) != 1 || nodes[0].Alive {
		t.Fatalf("silent node still alive: %+v", nodes)
	}
	if err := co.Heartbeat("w1"); err != nil {
		t.Fatal(err)
	}
	if nodes := co.Nodes(); !nodes[0].Alive {
		t.Fatalf("heartbeat did not revive node: %+v", nodes)
	}
	var sawDead, sawRevived bool
	for _, ty := range types {
		switch ty {
		case "node-dead":
			sawDead = true
		case "node-revived":
			sawRevived = true
		}
	}
	if !sawDead || !sawRevived {
		t.Fatalf("events %v missing node-dead/node-revived", types)
	}
}

// TestCampaignCrashResumeByteIdentical is the resume-protocol contract
// test: a campaign interrupted mid-flight (injected store crash after the
// first run persisted, so the second ends failed) resumes on a restarted
// coordinator with a fresh store handle. Exactly the pre-crash run is a
// cache hit, the failed one re-enters the queue through Queue.Retry and
// re-executes, and the merged bytes equal an uninterrupted control's.
func TestCampaignCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m := tinyClusterManifest()

	// Phase 1: run the campaign into the injected crash.
	storeA, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeA.FailAfterPuts(1)
	coA, err := NewCoordinator(Options{Store: storeA})
	if err != nil {
		t.Fatal(err)
	}
	coA.RegisterNode("w1", 1)
	id, err := coA.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if ran := drive(t, coA, NewRunner(storeA, 1, 1, func(int) {}), "w1"); ran != 2 {
		t.Fatalf("ran %d assignments, want 2", ran)
	}
	cA, err := coA.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	stA := cA.Status()
	if !stA.Done || stA.Completed != 1 || stA.Failed != 1 {
		t.Fatalf("interrupted campaign status: %+v", stA)
	}
	if failed := stA.Runs[1]; failed.State != campaign.RunFailed || !strings.Contains(failed.Error, campaign.ErrInjectedCrash.Error()) {
		t.Fatalf("post-crash run: %+v, want the injected crash", failed)
	}
	coA.Close()

	// Phase 2: resume with a fresh store handle (the "restarted process").
	coB := newTestCoordinator(t, dir)
	coB.RegisterNode("w1", 1)
	if err := coB.Resume(id); err != nil {
		t.Fatal(err)
	}
	cB, err := coB.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := cB.Status(); st.Done || st.Cached != 1 || st.Queued != 1 || st.Runs[0].State != campaign.RunCached {
		t.Fatalf("resume should cache-hit exactly the pre-crash run: %+v", st)
	}
	runnerB := NewRunner(coB.Store(), 1, 2, func(int) {})
	if ran := drive(t, coB, runnerB, "w1"); ran != 1 {
		t.Fatalf("resume ran %d assignments, want the failed run only", ran)
	}
	if bs := runnerB.Stats(); bs.Executed != 1 || bs.Cached != 0 {
		t.Fatalf("resume re-executed completed work: %+v", bs)
	}
	if st := cB.Status(); !st.Done || st.Cached != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("resumed campaign status: %+v", st)
	}
	recs, err := campaign.ReadQueueLog(coB.Store().QueueLogPath())
	if err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, rec := range recs {
		if rec.Op == "retry" {
			retries++
		}
	}
	if retries != 1 {
		t.Fatalf("queue log holds %d retry records, want 1 (the failed run)", retries)
	}

	// Phase 3: an uninterrupted control on the library path.
	got, err := coB.MergedResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, campaigntest.LibraryReference(t, m)) {
		t.Fatal("resumed merge differs from the uninterrupted control")
	}
}

// TestResumeAlreadyCompleteCampaign resumes a campaign whose every run
// already finished: resume must be a pure cache pass — nothing claimable,
// zero fresh executions — and the journal must absorb the duplicate
// terminal records without confusing a later replay.
func TestResumeAlreadyCompleteCampaign(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(co.Store(), 1, 2, func(int) {})
	drive(t, co, runner, "w1")
	if st := runner.Stats(); st.Executed != 2 {
		t.Fatalf("cold pass executed %d, want 2", st.Executed)
	}
	co.Close()

	co2 := newTestCoordinator(t, dir)
	co2.RegisterNode("w1", 2)
	if err := co2.Resume(id); err != nil {
		t.Fatal(err)
	}
	c2, err := co2.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); !st.Done || st.Cached != 2 {
		t.Fatalf("resumed status: %+v", st)
	}
	if ran := drive(t, co2, NewRunner(co2.Store(), 1, 2, func(int) {}), "w1"); ran != 0 {
		t.Fatalf("resume of a complete campaign issued %d assignments", ran)
	}
	if st := co2.Stats(); st.Executed != 0 || st.Cached != 2 || st.Pending != 0 {
		t.Fatalf("resume of a complete campaign: %+v", st)
	}

	// Resuming reopens the journal but appends nothing to it.
	assertJournalIsManifest(t, co2, id)
}

// assertJournalIsManifest checks that campaign id's journal holds exactly
// one record, the manifest.
func assertJournalIsManifest(t *testing.T, co *Coordinator, id string) {
	t.Helper()
	path := co.Store().JournalPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 || !bytes.Contains(data, []byte(`"type":"manifest"`)) {
		t.Fatalf("journal holds %d record(s), want only the manifest:\n%s", n, data)
	}
	m, runs, err := campaign.ReadJournal(path)
	if err != nil || len(runs) != 0 {
		t.Fatalf("journal replay: %d run record(s), err %v", len(runs), err)
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, c.Manifest()) {
		t.Fatalf("journaled manifest %+v, want %+v", m, c.Manifest())
	}
}

// TestDrivenCampaignJournalHoldsOnlyManifest drives a campaign that has
// both a cache hit (a run an earlier campaign stored) and a fresh run to
// the end: its journal holds the manifest record and nothing else, so a
// completion batch costs the queue's one fsync and no journal append.
func TestDrivenCampaignJournalHoldsOnlyManifest(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	runner := NewRunner(co.Store(), 1, 2, func(int) {})
	warm := tinyClusterManifest()
	warm.Strategies = warm.Strategies[:1]
	if _, err := co.Submit(warm); err != nil {
		t.Fatal(err)
	}
	drive(t, co, runner, "w1")

	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	if ran := drive(t, co, runner, "w1"); ran != 1 {
		t.Fatalf("worker ran %d assignments, want 1 (the other run is a cache hit)", ran)
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.Done || st.Cached != 1 || st.Completed != 1 {
		t.Fatalf("campaign status: %+v", st)
	}
	assertJournalIsManifest(t, co, id)
}

// seededClusterManifest is tinyClusterManifest over seeds 1..n: 2n runs.
func seededClusterManifest(n int) campaign.Manifest {
	m := tinyClusterManifest()
	m.Seeds = nil
	for s := 1; s <= n; s++ {
		m.Seeds = append(m.Seeds, uint64(s))
	}
	return m
}

// finishUnexecuted passes every assignment through the start gate and
// reports it failed without running it: a terminal outcome that frees the
// node's slots, which is all a dispatch test needs.
func finishUnexecuted(t *testing.T, co *Coordinator, node string, asgs []Assignment) {
	t.Helper()
	if len(asgs) == 0 {
		return
	}
	leases := make([]campaign.LeaseID, len(asgs))
	reports := make([]CompletionReport, len(asgs))
	for i, asg := range asgs {
		leases[i] = asg.Lease
		reports[i] = CompletionReport{Lease: asg.Lease, Outcome: Outcome{State: campaign.RunFailed, Error: "not executed"}}
	}
	for _, err := range co.StartRuns(node, leases) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range co.CompleteRuns(node, reports) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestWorkDrainsPastHungPeer: w2 claims one run, starts it and
// never completes it, but keeps heartbeating, so its lease neither
// expires nor can be stolen. w1 must still drain the queue at its own
// free slots, one full grant per tick. Under lifetime-grant levelling w1
// got two runs and then nothing, without limit.
func TestRequestWorkDrainsPastHungPeer(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 4)
	co.RegisterNode("w2", 4)
	if _, err := co.Submit(seededClusterManifest(24)); err != nil { // 48 runs
		t.Fatal(err)
	}
	hung, err := co.RequestWork("w2", 1)
	if err != nil || len(hung) != 1 {
		t.Fatalf("w2 claim: %v %v", hung, err)
	}
	if err := startRun(co, "w2", hung[0].Lease); err != nil {
		t.Fatal(err)
	}
	bound := (co.Stats().Pending + 3) / 4 // ticks at four runs a tick
	for tick := 0; co.Stats().Pending > 0; tick++ {
		if tick == bound {
			t.Fatalf("w1 left %d runs pending after %d ticks beside a hung peer", co.Stats().Pending, bound)
		}
		if err := co.Heartbeat("w2"); err != nil {
			t.Fatal(err)
		}
		asgs, err := co.RequestWork("w1", 4)
		if err != nil {
			t.Fatal(err)
		}
		finishUnexecuted(t, co, "w1", asgs)
		co.Advance()
	}
	if st := co.Stats(); st.Leased != 1 {
		t.Fatalf("the hung lease should be the only one left: %+v", st)
	}
}

// TestRequestWorkLateJoinerGetsFreeSlots: w1 runs four rounds alone, then
// w2 joins and the two request in lockstep, w1 first. Every request gets
// min(free slots, pending); lifetime grants from before w2 joined hold
// neither node back.
func TestRequestWorkLateJoinerGetsFreeSlots(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 4)
	if _, err := co.Submit(seededClusterManifest(24)); err != nil { // 48 runs
		t.Fatal(err)
	}
	round := func(nodes ...string) {
		claimed := make([][]Assignment, len(nodes))
		for i, name := range nodes {
			pending := co.Stats().Pending
			asgs, err := co.RequestWork(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(4, pending); len(asgs) != want {
				t.Fatalf("tick %d: %s asked for 4 with %d pending and got %d, want %d",
					co.Now(), name, pending, len(asgs), want)
			}
			claimed[i] = asgs
		}
		for i, name := range nodes {
			finishUnexecuted(t, co, name, claimed[i])
		}
		co.Advance()
	}
	for i := 0; i < 4; i++ {
		round("w1")
	}
	co.RegisterNode("w2", 4)
	for co.Stats().Pending > 0 {
		round("w1", "w2")
	}
	for _, n := range co.Nodes() {
		if want := map[string]int{"w1": 32, "w2": 16}[n.Name]; n.Granted != want {
			t.Fatalf("%s granted %d, want %d", n.Name, n.Granted, want)
		}
	}
}

// TestRequestWorkPullsFreeSlots pins the pull rule: a request takes
// min(max, free slots, maxGrant) runs from the queue head, in queue
// order, whatever its peers hold. Dead, saturated, idle and long-running
// peers hold nothing back, and stealing fills the slots the queue leaves
// over.
func TestRequestWorkPullsFreeSlots(t *testing.T) {
	setup := func(t *testing.T) *Coordinator {
		t.Helper()
		co := newTestCoordinator(t, t.TempDir())
		if _, err := co.Submit(seededClusterManifest(8)); err != nil { // 16 runs
			t.Fatal(err)
		}
		return co
	}
	// request asks for max runs and checks that exactly want of them came
	// back, taken in order from the head of the queue.
	request := func(t *testing.T, co *Coordinator, name string, max, want int) []Assignment {
		t.Helper()
		head := co.queue.PendingFront(-1)
		asgs, err := co.RequestWork(name, max)
		if err != nil {
			t.Fatal(err)
		}
		if len(asgs) != want {
			t.Fatalf("%s asked for %d: granted %d, want %d", name, max, len(asgs), want)
		}
		for i, asg := range asgs {
			if asg.Ref != head[i].Ref {
				t.Fatalf("%s grant %d is %s, want the queue's #%d %s", name, i, asg.Ref, i, head[i].Ref)
			}
		}
		return asgs
	}

	t.Run("free-slots-bound-a-grant", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 4)
		asgs := request(t, co, "w1", 8, 4)
		before := co.Stats().Pending
		request(t, co, "w1", 8, 0) // full: nothing granted, nothing drained
		if after := co.Stats().Pending; after != before {
			t.Fatalf("a full node's request moved the queue: %d pending before, %d after", before, after)
		}
		finishUnexecuted(t, co, "w1", asgs[:2])
		request(t, co, "w1", 8, 2)
	})

	t.Run("maxgrant-bounds-a-grant", func(t *testing.T) {
		co := newTestCoordinator(t, t.TempDir())
		items := make([]campaign.QueueItem, maxGrant+6)
		for i := range items {
			ref := fmt.Sprintf("c0001-big/run%05d", i)
			items[i] = campaign.QueueItem{Ref: ref, Key: ref}
		}
		if err := co.queue.EnqueueBatch(items); err != nil {
			t.Fatal(err)
		}
		co.RegisterNode("w1", 2*maxGrant)
		request(t, co, "w1", 2*maxGrant, maxGrant)
		request(t, co, "w1", 2*maxGrant, 6)
	})

	t.Run("idle-peer-holds-nothing-back", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 2)
		co.RegisterNode("w2", 2)
		request(t, co, "w1", 2, 2)
		request(t, co, "w1", 2, 0)
		request(t, co, "w2", 2, 2)
	})

	t.Run("saturated-peer-holds-nothing-back", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 4)
		co.RegisterNode("w2", 1)
		request(t, co, "w1", 1, 1)
		request(t, co, "w2", 1, 1) // w2 is now full
		request(t, co, "w1", 4, 3)
	})

	t.Run("dead-peer-holds-nothing-back", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 3)
		co.RegisterNode("w2", 3)
		for i := 0; i < 6; i++ {
			co.Advance()
			if err := co.Heartbeat("w1"); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range co.Nodes() {
			if n.Name == "w2" && n.Alive {
				t.Fatal("w2 still alive after a lease TTL of silence")
			}
		}
		request(t, co, "w1", 8, 3)
	})

	t.Run("lifetime-grants-hold-nothing-back", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 8)
		finishUnexecuted(t, co, "w1", request(t, co, "w1", 3, 3))
		co.RegisterNode("w2", 8)
		request(t, co, "w1", 8, 8) // three grants ahead of w2, and not held back
		request(t, co, "w2", 8, 5) // the rest of the queue
		for _, n := range co.Nodes() {
			if want := map[string]int{"w1": 11, "w2": 5}[n.Name]; n.Granted != want {
				t.Fatalf("%s granted %d, want %d", n.Name, n.Granted, want)
			}
		}
	})

	t.Run("stealing-fills-leftover-slots", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 14)
		co.RegisterNode("w2", 4)
		held := request(t, co, "w1", 14, 14)
		for i := 0; i < 3; i++ { // past StealAfter, w1 alive and not starting
			co.Advance()
			if err := co.Heartbeat("w1"); err != nil {
				t.Fatal(err)
			}
		}
		asgs, err := co.RequestWork("w2", 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(asgs) != 4 {
			t.Fatalf("w2 got %d runs, want the 2 pending plus 2 stolen", len(asgs))
		}
		if asgs[2].Ref != held[0].Ref || asgs[3].Ref != held[1].Ref {
			t.Fatalf("w2 stole %s and %s, want w1's oldest claims %s and %s", asgs[2].Ref, asgs[3].Ref, held[0].Ref, held[1].Ref)
		}
		if pending := co.Stats().Pending; pending != 0 {
			t.Fatalf("%d runs still pending after w2 took the queue", pending)
		}
		for _, n := range co.Nodes() {
			if want := map[string]int{"w1": 12, "w2": 4}[n.Name]; n.Inflight != want {
				t.Fatalf("%s inflight %d, want %d", n.Name, n.Inflight, want)
			}
		}
	})
}

// TestSubmitQueuesRunsByWorld: Expand is strategy-major, and the queue
// holds a manifest's runs seed-major, in manifest order within a seed, so
// the runs that share a world sit next to each other. Only the queue
// order changes: run statuses and merged bytes keep manifest order, and a
// restart keeps the queue order whether it replays the log or reads a
// snapshot.
func TestSubmitQueuesRunsByWorld(t *testing.T) {
	m := tinyClusterManifest() // Figure 4's shape on the tiny environment
	m.Seeds = []uint64{1, 2}
	m.Scenarios = []string{campaign.ScenarioFaultFree, "blackout"}
	m.ScenarioSpanS = 400
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	manifestOrder := make([]string, len(specs))
	for i, s := range specs {
		manifestOrder[i] = s.Name
	}
	var worldOrder []string
	for _, seed := range m.Seeds {
		for _, s := range specs {
			if s.Config.Seed == seed {
				worldOrder = append(worldOrder, s.Name)
			}
		}
	}
	if slices.Equal(worldOrder, manifestOrder) {
		t.Fatal("the manifest expands seed-major already; the test shows nothing")
	}
	checkQueue := func(t *testing.T, co *Coordinator, when string) {
		t.Helper()
		var got []string
		for _, it := range co.queue.PendingFront(-1) {
			got = append(got, it.Spec.Name)
		}
		if !slices.Equal(got, worldOrder) {
			t.Fatalf("%s: queue order %v, want %v", when, got, worldOrder)
		}
	}
	checkRuns := func(t *testing.T, co *Coordinator, id string) {
		t.Helper()
		c, err := co.Campaign(id)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, run := range c.Status().Runs {
			got = append(got, run.Name)
		}
		if !slices.Equal(got, manifestOrder) {
			t.Fatalf("status runs %v, want manifest order %v", got, manifestOrder)
		}
	}

	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	id, err := co.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	checkQueue(t, co, "after submit")
	checkRuns(t, co, id)

	co.Close()
	co = newTestCoordinator(t, dir)
	if co.QueueReplayStats().UsedSnapshot {
		t.Fatal("restart read a snapshot before any compaction")
	}
	if err := co.Resume(id); err != nil {
		t.Fatal(err)
	}
	checkQueue(t, co, "after a log replay")

	if err := co.queue.Compact(); err != nil {
		t.Fatal(err)
	}
	co.Close()
	co = newTestCoordinator(t, dir)
	if !co.QueueReplayStats().UsedSnapshot {
		t.Fatal("restart after a compaction ignored the snapshot")
	}
	if err := co.Resume(id); err != nil {
		t.Fatal(err)
	}
	checkQueue(t, co, "after a snapshot read")

	co.RegisterNode("w1", 4)
	if ran := drive(t, co, NewRunner(co.Store(), 1, 2, func(int) {}), "w1"); ran != len(specs) {
		t.Fatalf("ran %d runs, want %d", ran, len(specs))
	}
	checkRuns(t, co, id)
	got, err := co.MergedResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, campaigntest.LibraryReference(t, m)) {
		t.Fatal("merged bytes differ from the manifest-order library reference")
	}
}
