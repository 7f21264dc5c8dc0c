package cluster

import (
	"bytes"
	"errors"
	"os"
	"reflect"
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
	// w1 claims both runs, then sits on them past StealAfter. The thief
	// registers afterwards so round-robin doesn't defer w1's claims.
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

// TestRequestWorkLevelsGrants pins the grant rule: a request takes runs
// from the queue head, in queue order, and a node may run at most one
// lifetime grant ahead of every other alive peer with a free slot. Dead
// and saturated peers hold nothing back; with no such peer a request
// takes up to max and the node's free capacity.
func TestRequestWorkLevelsGrants(t *testing.T) {
	m := tinyClusterManifest()
	m.Seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8} // 16 runs
	setup := func(t *testing.T) *Coordinator {
		t.Helper()
		co := newTestCoordinator(t, t.TempDir())
		if _, err := co.Submit(m); err != nil {
			t.Fatal(err)
		}
		return co
	}
	// request asks for max runs and checks that exactly want of them came
	// back, taken in order from the head of the queue.
	request := func(t *testing.T, co *Coordinator, name string, max, want int) {
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
	}

	t.Run("one-ahead-of-an-idle-peer-waits", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 2)
		co.RegisterNode("w2", 2)
		request(t, co, "w1", 2, 1)
		request(t, co, "w1", 2, 0)
		request(t, co, "w2", 2, 2)
		request(t, co, "w1", 2, 1)
	})

	t.Run("several-ahead-gets-nothing-and-drains-nothing", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 8)
		request(t, co, "w1", 3, 3)
		co.RegisterNode("w2", 8)
		before := co.Stats().Pending
		request(t, co, "w1", 8, 0)
		if after := co.Stats().Pending; after != before {
			t.Fatalf("a deferred request moved the queue: %d pending before, %d after", before, after)
		}
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
		request(t, co, "w1", 8, 3) // no qualifying peer: up to capacity
	})

	t.Run("one-request-takes-the-gap-or-capacity", func(t *testing.T) {
		co := setup(t)
		co.RegisterNode("w1", 4)
		request(t, co, "w1", 3, 3) // no peer: up to max
		co.RegisterNode("w2", 8)
		request(t, co, "w2", 8, 4) // w1 has 3 grants: w2 may reach 4
		request(t, co, "w2", 8, 0)
		for _, n := range co.Nodes() {
			if want := map[string]int{"w1": 3, "w2": 4}[n.Name]; n.Granted != want {
				t.Fatalf("%s granted %d, want %d", n.Name, n.Granted, want)
			}
		}
	})
}
