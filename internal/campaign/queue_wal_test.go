package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// The journal, the queue log and the queue snapshot all sit on
// internal/wal, whose own tests cover the torn-tail rule byte by byte.
// The tests here check that each of the three actually inherits it, and
// that the queue's handle management around it is sound.

// TestTornTailRuleAcrossUsers runs one table of crash artifacts through
// all three users. For the two logs, "survives" means the full cycle a
// coordinator goes through: open over the tear, append, close, and open
// AGAIN — the queue half of that is the regression test for the second
// restart refusing with "corrupt record at line N is followed by more
// records", because the first restart appended onto the half-line. The
// snapshot is published atomically, so no crash leaves a tail after its
// trailer: it refuses every one.
func TestTornTailRuleAcrossUsers(t *testing.T) {
	const garbage = `{"op":"claim","ref":`
	c, err := NewCampaign("c0100-replay", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	keys := c.Keys()

	users := []struct {
		name string
		// seed writes a healthy file and returns its path and one more
		// whole record of its format.
		seed func(t *testing.T) (path, record string)
		// cycle opens the file, appends where the user can, reopens, and
		// checks that nothing before the tear and nothing appended was lost.
		cycle func(t *testing.T, path string) error
		// atomic users refuse any tail at all.
		atomic bool
	}{
		{
			name: "journal",
			seed: func(t *testing.T) (string, string) {
				path := filepath.Join(t.TempDir(), "journal.jsonl")
				j, err := openJournal(path, c)
				if err != nil {
					t.Fatal(err)
				}
				j.RecordRun(RunStatus{Name: "r1", Key: keys[0], State: RunDone})
				j.Close()
				return path, runLine(hexKey('a'), "done")
			},
			cycle: func(t *testing.T, path string) error {
				j, err := openJournal(path, c)
				if err != nil {
					return err
				}
				j.RecordRun(RunStatus{Name: "r2", Key: keys[1], State: RunDone})
				j.Close()
				if j, err = openJournal(path, c); err != nil {
					t.Fatalf("second open: %v", err)
				}
				j.Close()
				_, runs, err := ReadJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				if runs[keys[0]].State != RunDone || runs[keys[1]].State != RunDone {
					t.Fatalf("journal lost a run across the tear: %+v", runs)
				}
				return nil
			},
		},
		{
			name: "queue log",
			seed: func(t *testing.T) (string, string) {
				path, _ := seedQueueLog(t)
				return path, `{"op":"gen","gen":0}`
			},
			cycle: func(t *testing.T, path string) error {
				q, err := OpenQueue(path)
				if err != nil {
					return err
				}
				ref := q.Pending()[0].Ref
				lease, _, err := claim1(q, ref, "w1", 0, 5)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := start1(q, lease.ID); err != nil {
					t.Fatal(err)
				}
				if _, err := complete1(q, lease.ID, RunDone); err != nil {
					t.Fatal(err)
				}
				if err := q.Close(); err != nil {
					t.Fatal(err)
				}
				q2, err := OpenQueue(path)
				if err != nil {
					t.Fatalf("second open: %v", err)
				}
				defer func() { _ = q2.Close() }()
				if st, ok := q2.Done(ref); !ok || st != RunDone {
					t.Fatalf("completion appended after the tear is gone: %v %v", st, ok)
				}
				if p, _ := q2.Depth(); p != 0 {
					t.Fatalf("%d refs pending, want the seeded completion kept too", p)
				}
				return nil
			},
		},
		{
			name:   "queue snapshot",
			atomic: true,
			seed: func(t *testing.T) (string, string) {
				path, _ := seedQueueLog(t)
				q, err := OpenQueue(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := q.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := q.Close(); err != nil {
					t.Fatal(err)
				}
				return queueSnapshotPath(path), `{"op":"snap-end","count":2}`
			},
			cycle: func(t *testing.T, path string) error {
				snap, err := ReadQueueSnapshot(path)
				if err != nil {
					return err
				}
				if len(snap.Items) != 2 || len(snap.Done) != 1 || snap.Gen != 1 {
					t.Fatalf("snapshot misread: %+v", snap)
				}
				return nil
			},
		},
	}
	tails := []struct {
		name    string
		tail    func(record string) string
		refused bool
	}{
		{name: "none", tail: func(string) string { return "" }},
		{name: "unterminated fragment", tail: func(string) string { return garbage }},
		{name: "unterminated whole record", tail: func(rec string) string { return rec }},
		{name: "terminated garbage", tail: func(string) string { return garbage + "\n" }},
		{name: "terminated garbage then blank lines", tail: func(string) string { return garbage + "\n\n\n" }},
		{name: "garbage then a record", tail: func(rec string) string { return garbage + "\n" + rec + "\n" }, refused: true},
	}
	for _, u := range users {
		for _, tc := range tails {
			t.Run(u.name+"/"+tc.name, func(t *testing.T) {
				path, record := u.seed(t)
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				tail := tc.tail(record)
				if _, err := f.WriteString(tail); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				refused := tc.refused || (u.atomic && tail != "")
				err = u.cycle(t, path)
				if refused && err == nil {
					t.Fatalf("tail %q accepted", tail)
				}
				if !refused && err != nil {
					t.Fatalf("torn tail refused: %v", err)
				}
			})
		}
	}
}

// TestQueueSnapshotTornBeforeTrailerIsRefused: the one place the shared
// rule could hurt a snapshot — forgiving a final record — cannot, because
// a snapshot without its final record has no snap-end.
func TestQueueSnapshotTornBeforeTrailerIsRefused(t *testing.T) {
	path, _ := seedQueueLog(t)
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	_ = q.Close()
	snapPath := queueSnapshotPath(path)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(snapPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := ReadQueueSnapshot(snapPath); err == nil {
			t.Fatalf("snapshot cut at byte %d of %d accepted: %+v", cut, len(data), snap)
		}
	}
}

// TestQueueRetriedRotationReopensTheLog is the regression test for the
// owed-rotation retry: when the rename half of a log rotation failed,
// the retry renamed, cleared the debt and never reopened the append
// handle, so every later verb failed with "invalid argument" until the
// process restarted. The rename is made to fail by pointing the queue at
// a log path occupied by a non-empty directory, which works as any user.
func TestQueueRetriedRotationReopensTheLog(t *testing.T) {
	items := batchItems(t, queueSpecs(t))
	q, err := OpenQueueWithOptions(filepath.Join(t.TempDir(), "queue.jsonl"), QueueOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(t.TempDir(), "queue.jsonl")
	if err := os.MkdirAll(filepath.Join(blocked, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	q.path, q.snapPath = blocked, queueSnapshotPath(blocked)
	q.mu.Unlock()

	if err := q.Compact(); err == nil {
		t.Fatal("rotation onto a directory succeeded")
	}
	if q.Gen() != 1 {
		t.Fatalf("gen %d: the snapshot published, so the queue is at generation 1", q.Gen())
	}
	// While the rotation is owed, verbs fail loudly and change nothing.
	if _, err := q.ClaimBatch([]string{items[0].Ref}, "w1", 0, 5); err == nil {
		t.Fatal("claim journaled to a log the snapshot supersedes")
	}
	if p, l := q.Depth(); p != len(items) || l != 0 {
		t.Fatalf("failed claim changed state: pending=%d leased=%d", p, l)
	}

	// The fault clears; the next verb retries the rotation and proceeds.
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	grants, err := q.ClaimBatch([]string{items[0].Ref}, "w1", 0, 5)
	if err != nil || grants[0].Err != nil {
		t.Fatalf("claim after the retried rotation: %v %v", err, grants)
	}
	if _, err := q.StartBatch([]LeaseID{grants[0].Lease.ID}); err != nil {
		t.Fatalf("second append after the retried rotation: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(blocked)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	if st := q2.ReplayStats(); q2.Gen() != 1 || !st.UsedSnapshot || st.LogEntries != 2 {
		t.Fatalf("reopened at gen %d with %+v, want gen 1, the snapshot, and the claim and start replayed", q2.Gen(), st)
	}
	lease, _, err := claim1(q2, items[0].Ref, "w2", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID <= grants[0].Lease.ID {
		t.Fatalf("lease %d reused: the claim journaled after the rotation was not replayed", lease.ID)
	}
}

// TestQueueReplaysLogWrittenBySingleVerbs is the compatibility proof for
// deleting the single-lease write path: testdata holds a log the parent
// build (6f08feb) wrote with Enqueue/Claim/Start/Complete and a single
// expiry, and it must open to the state that build left.
func TestQueueReplaysLogWrittenBySingleVerbs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "queue_single_verbs_6f08feb.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadQueueLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, r := range recs {
		ops = append(ops, r.Op)
	}
	wantOps := []string{"enqueue", "enqueue", "claim", "start", "complete", "claim", "expire", "claim"}
	if len(ops) != len(wantOps) {
		t.Fatalf("fixture ops %v, want %v", ops, wantOps)
	}
	for i := range wantOps {
		if ops[i] != wantOps[i] {
			t.Fatalf("fixture ops %v, want %v", ops, wantOps)
		}
	}
	done, open := recs[0].Ref, recs[1].Ref

	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	if st, ok := q.Done(done); !ok || st != RunDone {
		t.Fatalf("completed ref: %v %v", st, ok)
	}
	// The second ref was claimed, expired and claimed again (lease 2)
	// when the log ends: recovery re-queues it and never reuses an ID.
	pending := q.Pending()
	if len(pending) != 1 || pending[0].Ref != open || pending[0].Spec.Strategy.Kind == "" {
		t.Fatalf("pending after replay: %+v", pending)
	}
	if st := q.ReplayStats(); st.LogEntries != len(wantOps) || st.UsedSnapshot {
		t.Fatalf("replay stats: %+v", st)
	}
	lease, _, err := claim1(q, open, "w3", 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID != 3 {
		t.Fatalf("next lease %d, want 3", lease.ID)
	}
}
