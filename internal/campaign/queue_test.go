package campaign

import (
	"errors"
	"path/filepath"
	"testing"
)

// queueSpecs expands the tiny manifest once per test for queue fodder.
func queueSpecs(t *testing.T) []RunSpec {
	t.Helper()
	specs, err := tinyManifest().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// One-ref conveniences over the batch verbs, for tests that walk the
// lease protocol a ref at a time.

func enqueue1(q *Queue, ref, key string, spec RunSpec) error {
	return q.EnqueueBatch([]QueueItem{{Ref: ref, Key: key, Spec: spec}})
}

func claim1(q *Queue, ref, node string, now, ttl Tick) (Lease, RunSpec, error) {
	grants, err := q.ClaimBatch([]string{ref}, node, now, ttl)
	if err != nil {
		return Lease{}, RunSpec{}, err
	}
	return grants[0].Lease, grants[0].Spec, grants[0].Err
}

func start1(q *Queue, id LeaseID) (Lease, error) {
	res, err := q.StartBatch([]LeaseID{id})
	if err != nil {
		return Lease{}, err
	}
	return res[0].Lease, res[0].Err
}

func complete1(q *Queue, id LeaseID, state RunState) (Lease, error) {
	res, err := q.CompleteBatch([]Completion{{ID: id, State: state}})
	if err != nil {
		return Lease{}, err
	}
	return res[0].Lease, res[0].Err
}

func enqueueAll(t *testing.T, q *Queue, specs []RunSpec) []string {
	t.Helper()
	refs := make([]string, len(specs))
	for i, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = "c1/" + key
		if err := enqueue1(q, refs[i], key, spec); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

func TestQueueClaimStartCompleteLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	specs := queueSpecs(t)
	refs := enqueueAll(t, q, specs)
	if p, l := q.Depth(); p != len(refs) || l != 0 {
		t.Fatalf("depth after enqueue: pending=%d leased=%d", p, l)
	}
	// Re-enqueueing a known ref is a no-op.
	if err := enqueue1(q, refs[0], "x", specs[0]); err != nil {
		t.Fatal(err)
	}
	if p, _ := q.Depth(); p != len(refs) {
		t.Fatalf("duplicate enqueue changed depth to %d", p)
	}

	lease, spec, err := claim1(q, refs[0], "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != specs[0].Name || lease.Node != "w1" || lease.Expires != 5 {
		t.Fatalf("claim: %+v spec %q", lease, spec.Name)
	}
	if _, _, err := claim1(q, refs[0], "w2", 0, 5); !errors.Is(err, ErrNotPending) {
		t.Fatalf("double claim err = %v, want ErrNotPending", err)
	}
	if _, err := start1(q, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("duplicate complete err = %v, want ErrStaleLease", err)
	}
	if st, ok := q.Done(refs[0]); !ok || st != RunDone {
		t.Fatalf("done state: %v %v", st, ok)
	}
	if _, err := complete1(q, lease.ID+100, RunDone); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("unknown lease complete err = %v", err)
	}
}

// TestQueueCompleteRequiresStart enforces the documented invariant that
// Complete is accepted only from the lease that started the run: a
// claimed-but-unstarted lease cannot report an outcome.
func TestQueueCompleteRequiresStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	refs := enqueueAll(t, q, queueSpecs(t))
	lease, _, err := claim1(q, refs[0], "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("complete before start err = %v, want ErrStaleLease", err)
	}
	if st, ok := q.Done(refs[0]); ok {
		t.Fatalf("unstarted complete recorded terminal state %v", st)
	}
	// The lease is still live and proceeds normally through the gate.
	if _, err := start1(q, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); err != nil {
		t.Fatal(err)
	}
}

// TestQueueRetryClearsTerminalState walks the resume-retry path: a ref
// with a terminal state becomes claimable again under a fresh lease, the
// retry survives log replay, and retrying a non-terminal ref is
// rejected.
func TestQueueRetryClearsTerminalState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	specs := queueSpecs(t)
	refs := enqueueAll(t, q, specs)
	if err := q.Retry(refs[0], "k", specs[0]); err == nil {
		t.Fatal("retry of a pending ref succeeded")
	}
	lease, _, err := claim1(q, refs[0], "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := start1(q, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunFailed); err != nil {
		t.Fatal(err)
	}
	key := refs[0][len("c1/"):]
	if err := q.Retry(refs[0], key, specs[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Done(refs[0]); ok {
		t.Fatal("retry left the ref terminal")
	}
	// Re-enqueueing the retried ref stays a no-op (it is already pending).
	if err := enqueue1(q, refs[0], key, specs[0]); err != nil {
		t.Fatal(err)
	}
	pending := q.Pending()
	count := 0
	for _, it := range pending {
		if it.Ref == refs[0] {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("retried ref pending %d times, want 1", count)
	}
	_ = q.Close()

	// Recovery replays the retry: the ref must come back pending, not done.
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	if _, ok := q2.Done(refs[0]); ok {
		t.Fatal("replay resurrected the retried ref's terminal state")
	}
	lease2, spec, err := claim1(q2, refs[0], "w2", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Strategy.Kind == "" {
		t.Fatal("retried spec lost its strategy across replay")
	}
	if _, err := start1(q2, lease2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q2, lease2.ID, RunDone); err != nil {
		t.Fatal(err)
	}
	if st, ok := q2.Done(refs[0]); !ok || st != RunDone {
		t.Fatalf("retried ref did not re-complete: %v %v", st, ok)
	}
}

func TestQueueLeaseExpiryRequeuesAtFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	refs := enqueueAll(t, q, queueSpecs(t))

	lease, _, err := claim1(q, refs[0], "w1", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exp := q.ExpireLeases(2); len(exp) != 0 {
		t.Fatalf("premature expiry: %+v", exp)
	}
	// Heartbeat extension pushes expiry out.
	q.Extend("w1", 2, 3)
	if exp := q.ExpireLeases(3); len(exp) != 0 {
		t.Fatalf("extended lease expired: %+v", exp)
	}
	exp := q.ExpireLeases(5)
	if len(exp) != 1 || exp[0].ID != lease.ID {
		t.Fatalf("expiry: %+v", exp)
	}
	// The dead node's run is back at the front of the queue.
	pending := q.Pending()
	if len(pending) == 0 || pending[0].Ref != refs[0] {
		t.Fatalf("expired run not requeued at front: %+v", pending)
	}
	// The old lease is stale at both gates.
	if _, err := start1(q, lease.ID); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale start err = %v", err)
	}
	if _, err := complete1(q, lease.ID, RunDone); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete err = %v", err)
	}
	// Re-claim under a fresh lease works.
	lease2, _, err := claim1(q, refs[0], "w2", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.ID == lease.ID {
		t.Fatal("lease IDs reused across grants")
	}
}

func TestQueueStealOnlyUnstartedForeignLeases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	refs := enqueueAll(t, q, queueSpecs(t))

	lease, _, err := claim1(q, refs[0], "w1", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Self-steal and stealing an unknown ref are rejected.
	if _, _, err := q.Steal(refs[0], "w1", 1, 10); !errors.Is(err, ErrNotStealable) {
		t.Fatalf("self-steal err = %v", err)
	}
	if _, _, err := q.Steal("c1/none", "w2", 1, 10); !errors.Is(err, ErrNotStealable) {
		t.Fatalf("unknown steal err = %v", err)
	}
	stolen, spec, err := q.Steal(refs[0], "w2", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Node != "w2" || spec.Name == "" {
		t.Fatalf("steal grant: %+v %q", stolen, spec.Name)
	}
	// The victim's lease is dead: it cannot start or complete the run.
	if _, err := start1(q, lease.ID); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("victim start err = %v", err)
	}
	// The thief proceeds normally.
	if _, err := start1(q, stolen.ID); err != nil {
		t.Fatal(err)
	}
	// A started lease is not stealable back.
	if _, _, err := q.Steal(refs[0], "w3", 2, 10); !errors.Is(err, ErrNotStealable) {
		t.Fatalf("steal of started lease err = %v", err)
	}
	if _, err := complete1(q, stolen.ID, RunDone); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRecoveryRequeuesUnfinishedClaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	refs := enqueueAll(t, q, queueSpecs(t))
	lease, _, err := claim1(q, refs[0], "w1", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := start1(q, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); err != nil {
		t.Fatal(err)
	}
	// Claim the second run but never complete it: the coordinator "dies".
	if len(refs) < 2 {
		t.Fatal("need at least 2 runs")
	}
	if _, _, err := claim1(q, refs[1], "w1", 1, 10); err != nil {
		t.Fatal(err)
	}
	_ = q.Close()

	// Recovery: completed runs stay done, the orphaned claim is pending
	// again, and lease IDs never go backwards.
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	if st, ok := q2.Done(refs[0]); !ok || st != RunDone {
		t.Fatalf("completed run lost on recovery: %v %v", st, ok)
	}
	pending := q2.Pending()
	if len(pending) != 1 || pending[0].Ref != refs[1] {
		t.Fatalf("orphaned claim not requeued: %+v", pending)
	}
	lease2, _, err := claim1(q2, refs[1], "w2", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.ID <= lease.ID {
		t.Fatalf("recovered lease ID %d not beyond pre-crash %d", lease2.ID, lease.ID)
	}
	// The recovered spec still executes: it round-tripped through JSON.
	if pending[0].Spec.Strategy.Kind == "" {
		t.Fatal("recovered spec lost its strategy")
	}
}

func TestQueueLogIsAnEvidenceTrail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	refs := enqueueAll(t, q, queueSpecs(t))
	lease, _, err := claim1(q, refs[0], "w1", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	q.ExpireLeases(3)
	lease2, _, err := claim1(q, refs[0], "w2", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := start1(q, lease2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease2.ID, RunDone); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadQueueLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, r := range recs {
		for _, e := range r.Batch {
			if e.Ref == refs[0] {
				ops = append(ops, r.Op)
			}
		}
	}
	want := []string{"enqueue-batch", "claim-batch", "expire-batch", "claim-batch", "start-batch", "complete-batch"}
	if len(ops) != len(want) {
		t.Fatalf("ops for ref: %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %q, want %q (all: %v)", i, ops[i], want[i], ops)
		}
	}
	_ = lease
}
