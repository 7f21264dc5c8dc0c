package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// --- replay bugfix regressions ---------------------------------------------

// corruptLine overwrites the n-th (0-based) line of a JSONL file with junk
// that does not parse, preserving the line structure around it.
func corruptLine(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if n < 0 {
		n = len(lines) + n
	}
	if n >= len(lines) {
		t.Fatalf("log has %d lines, wanted line %d", len(lines), n)
	}
	lines[n] = `{"op":"claim","ref":` // unparseable
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedQueueLog drives a queue through a few verbs and returns the log path.
func seedQueueLog(t *testing.T) (string, []string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	specs := queueSpecs(t)
	refs := enqueueAll(t, q, specs)
	lease, _, err := claim1(q, refs[0], "w1", 0, 5)
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
	return path, refs
}

func TestQueueReplayRejectsMidLogCorruption(t *testing.T) {
	path, _ := seedQueueLog(t)
	// Corrupt a record in the middle: records follow it, so this is not a
	// torn trailing write and replay must refuse rather than silently
	// dropping the completion that follows.
	corruptLine(t, path, 1)
	if _, err := OpenQueue(path); err == nil {
		t.Fatal("OpenQueue accepted a corrupt mid-log record")
	} else if !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := ReadQueueLog(path); err == nil {
		t.Fatal("ReadQueueLog accepted a corrupt mid-log record")
	}
}

func TestQueueReplayToleratesTornFinalRecord(t *testing.T) {
	path, refs := seedQueueLog(t)
	// A malformed final line is the crash signature of an interrupted
	// append and is dropped: here the completion is lost, so the ref
	// returns to pending.
	corruptLine(t, path, -1)
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatalf("torn trailing write should be tolerated: %v", err)
	}
	defer func() { _ = q.Close() }()
	if _, done := q.Done(refs[0]); done {
		t.Fatal("dropped completion still visible")
	}
	if p, _ := q.Depth(); p != len(refs) {
		t.Fatalf("pending = %d, want %d (claimed ref re-queued)", p, len(refs))
	}
}

func TestQueueReplaySurfacesOversizedRecord(t *testing.T) {
	path, _ := seedQueueLog(t)
	// One >16 MB line exceeds the replay scanner's buffer. Pre-fix this
	// was swallowed and silently truncated replay; it must be an error.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, (1<<24)+64)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := f.Write(append(huge, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenQueue(path); err == nil {
		t.Fatal("OpenQueue swallowed an oversized record")
	}
	if _, err := ReadQueueLog(path); err == nil {
		t.Fatal("ReadQueueLog swallowed an oversized record")
	}
}

func TestQueueReplayHonorsRetrySpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	specs := queueSpecs(t)
	if len(specs) < 2 {
		t.Fatal("need two distinct specs")
	}
	keyA, _ := specs[0].Key()
	keyB, _ := specs[1].Key()
	if err := enqueue1(q, "c1/run", keyA, specs[0]); err != nil {
		t.Fatal(err)
	}
	lease, _, err := claim1(q, "c1/run", "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := start1(q, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunFailed); err != nil {
		t.Fatal(err)
	}
	// Retry re-queues the ref with a *different* key+spec (the resume
	// path re-derives specs, which may legitimately change).
	if err := q.Retry("c1/run", keyB, specs[1]); err != nil {
		t.Fatal(err)
	}
	livePending := q.Pending()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Pre-fix, replay kept the enqueue-time keyA/specs[0] for known refs,
	// diverging from the pre-crash queue. Replayed state must match it.
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	replayed := q2.Pending()
	if !reflect.DeepEqual(livePending, replayed) {
		t.Fatalf("replayed pending diverged from live queue:\nlive:     %+v\nreplayed: %+v", livePending, replayed)
	}
	if len(replayed) != 1 || replayed[0].Key != keyB {
		t.Fatalf("replayed item key = %q, want retry-time key %q", replayed[0].Key, keyB)
	}
}

// --- batched verbs ----------------------------------------------------------

func batchItems(t *testing.T, specs []RunSpec) []QueueItem {
	t.Helper()
	items := make([]QueueItem, len(specs))
	for i, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		items[i] = QueueItem{Ref: "c1/" + key, Key: key, Spec: spec}
	}
	return items
}

func TestQueueBatchLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	items := batchItems(t, queueSpecs(t))
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a re-submitted manifest adds nothing.
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}
	if p, _ := q.Depth(); p != len(items) {
		t.Fatalf("pending = %d, want %d", p, len(items))
	}

	refs := make([]string, len(items))
	for i, it := range items {
		refs[i] = it.Ref
	}
	grants, err := q.ClaimBatch(refs, "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]LeaseID, 0, len(grants))
	for i, g := range grants {
		if g.Err != nil {
			t.Fatalf("grant %d: %v", i, g.Err)
		}
		if g.Lease.Node != "w1" || g.Lease.Ref != refs[i] {
			t.Fatalf("grant %d lease: %+v", i, g.Lease)
		}
		if len(ids) > 0 && g.Lease.ID <= ids[len(ids)-1] {
			t.Fatalf("lease IDs not strictly increasing: %v then %v", ids, g.Lease.ID)
		}
		ids = append(ids, g.Lease.ID)
	}
	if p, l := q.Depth(); p != 0 || l != len(items) {
		t.Fatalf("after batch claim: pending=%d leased=%d", p, l)
	}

	started, err := q.StartBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]Completion, len(ids))
	for i, r := range started {
		if r.Err != nil {
			t.Fatalf("start %d: %v", i, r.Err)
		}
		comps[i] = Completion{ID: ids[i], State: RunDone}
	}
	results, err := q.CompleteBatch(comps)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("complete %d: %v", i, r.Err)
		}
	}
	for _, ref := range refs {
		if st, ok := q.Done(ref); !ok || st != RunDone {
			t.Fatalf("ref %s not done: %v %v", ref, st, ok)
		}
	}

	// The whole lifecycle journaled one batched record per verb (plus the
	// no-op re-enqueue), not one per ref.
	recs, err := ReadQueueLog(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Op]++
		if len(r.Batch) != len(items) {
			t.Fatalf("%s record carries %d entries, want %d", r.Op, len(r.Batch), len(items))
		}
	}
	want := map[string]int{"enqueue-batch": 1, "claim-batch": 1, "start-batch": 1, "complete-batch": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("record counts = %v, want %v", counts, want)
	}
}

func TestQueueBatchPartialFailureDoesNotPoisonSiblings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	items := batchItems(t, queueSpecs(t))
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}

	// Claim: an unknown ref and an in-batch duplicate fail their own
	// slots; the valid refs around them are granted.
	refs := []string{items[0].Ref, "c1/ghost", items[1].Ref, items[0].Ref}
	grants, err := q.ClaimBatch(refs, "w1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if grants[0].Err != nil || grants[2].Err != nil {
		t.Fatalf("valid slots failed: %v / %v", grants[0].Err, grants[2].Err)
	}
	if !errors.Is(grants[1].Err, ErrNotPending) || !errors.Is(grants[3].Err, ErrNotPending) {
		t.Fatalf("invalid slots: %v / %v", grants[1].Err, grants[3].Err)
	}

	// Start: a stale id fails only its slot.
	startRes, err := q.StartBatch([]LeaseID{grants[0].Lease.ID, 9999, grants[2].Lease.ID})
	if err != nil {
		t.Fatal(err)
	}
	if startRes[0].Err != nil || startRes[2].Err != nil {
		t.Fatalf("valid starts failed: %v / %v", startRes[0].Err, startRes[2].Err)
	}
	if !errors.Is(startRes[1].Err, ErrStaleLease) {
		t.Fatalf("stale start: %v", startRes[1].Err)
	}

	// Complete: a never-started lease (none here), a duplicate within the
	// batch, and a stale id all fail per-slot.
	comps := []Completion{
		{ID: grants[0].Lease.ID, State: RunDone},
		{ID: 9999, State: RunDone},
		{ID: grants[0].Lease.ID, State: RunFailed},
		{ID: grants[2].Lease.ID, State: RunFailed},
	}
	res, err := q.CompleteBatch(comps)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("valid completes failed: %v / %v", res[0].Err, res[3].Err)
	}
	if !errors.Is(res[1].Err, ErrStaleLease) || !errors.Is(res[2].Err, ErrStaleLease) {
		t.Fatalf("invalid completes: %v / %v", res[1].Err, res[2].Err)
	}
	if st, _ := q.Done(items[0].Ref); st != RunDone {
		t.Fatalf("duplicate completion overwrote state: %v", st)
	}
	if st, _ := q.Done(items[1].Ref); st != RunFailed {
		t.Fatalf("item1 state: %v", st)
	}

	// The batch survives a restart: replayed state matches.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	if st, _ := q2.Done(items[0].Ref); st != RunDone {
		t.Fatalf("replayed state: %v", st)
	}
	if p, l := q2.Depth(); p != len(items)-2 || l != 0 {
		t.Fatalf("replayed depth: pending=%d leased=%d", p, l)
	}
}

// --- snapshot compaction ----------------------------------------------------

// driveQueue applies an identical verb sequence to q: enqueue all items,
// complete the first half, fail-and-retry one, leave one claimed.
func driveQueue(t *testing.T, q *Queue, items []QueueItem) {
	t.Helper()
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}
	half := len(items) / 2
	for i := 0; i < half; i++ {
		lease, _, err := claim1(q, items[i].Ref, "w1", Tick(i), 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := start1(q, lease.ID); err != nil {
			t.Fatal(err)
		}
		state := RunDone
		if i == 0 {
			state = RunFailed
		}
		if _, err := complete1(q, lease.ID, state); err != nil {
			t.Fatal(err)
		}
	}
	// Retry the failure with a swapped key/spec (moves it to the back).
	if err := q.Retry(items[0].Ref, items[1].Key, items[1].Spec); err != nil {
		t.Fatal(err)
	}
	// Leave one ref claimed-but-unfinished: recovery must re-queue it.
	if _, _, err := claim1(q, items[half].Ref, "w2", 20, 5); err != nil {
		t.Fatal(err)
	}
}

// queueObservable compares everything a replayed queue exposes.
func queueObservable(t *testing.T, q *Queue, items []QueueItem) (pending []QueueItem, done map[string]RunState) {
	t.Helper()
	done = map[string]RunState{}
	for _, it := range items {
		if st, ok := q.Done(it.Ref); ok {
			done[it.Ref] = st
		}
	}
	return q.Pending(), done
}

func TestQueueSnapshotTailReplayMatchesFullReplay(t *testing.T) {
	items := batchItems(t, queueSpecs(t))

	// Reference: full-log replay, compaction disabled.
	refPath := filepath.Join(t.TempDir(), "queue.jsonl")
	refQ, err := OpenQueueWithOptions(refPath, QueueOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	driveQueue(t, refQ, items)
	if err := refQ.Close(); err != nil {
		t.Fatal(err)
	}
	refQ2, err := OpenQueue(refPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = refQ2.Close() }()

	// Snapshotting queue: compact aggressively mid-sequence.
	snapPath := filepath.Join(t.TempDir(), "queue.jsonl")
	snapQ, err := OpenQueueWithOptions(snapPath, QueueOptions{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	driveQueue(t, snapQ, items)
	if snapQ.Gen() == 0 {
		t.Fatal("compaction never triggered")
	}
	if n := snapQ.CompactFailures(); n != 0 {
		t.Fatalf("%d compactions failed", n)
	}
	if err := snapQ.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(queueSnapshotPath(snapPath)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	snapQ2, err := OpenQueueWithOptions(snapPath, QueueOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = snapQ2.Close() }()

	stats := snapQ2.ReplayStats()
	if !stats.UsedSnapshot {
		t.Fatal("reopen did not use the snapshot")
	}
	refStats := refQ2.ReplayStats()
	if stats.LogEntries >= refStats.LogEntries {
		t.Fatalf("snapshot+tail replayed %d entries, full replay %d — tail not smaller", stats.LogEntries, refStats.LogEntries)
	}

	refPending, refDone := queueObservable(t, refQ2, items)
	snapPending, snapDone := queueObservable(t, snapQ2, items)
	if !reflect.DeepEqual(refPending, snapPending) {
		t.Fatalf("pending diverged:\nfull: %+v\nsnap: %+v", refPending, snapPending)
	}
	if !reflect.DeepEqual(refDone, snapDone) {
		t.Fatalf("done diverged:\nfull: %v\nsnap: %v", refDone, snapDone)
	}

	// Lease IDs continue from the same point — never reused across
	// compactions.
	l1, _, err := claim1(refQ2, refPending[0].Ref, "w9", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := claim1(snapQ2, snapPending[0].Ref, "w9", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l1.ID != l2.ID {
		t.Fatalf("next lease ID diverged: full=%d snap=%d", l1.ID, l2.ID)
	}
}

func TestQueueRecoversFromCrashMidCompaction(t *testing.T) {
	items := batchItems(t, queueSpecs(t))
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueueWithOptions(path, QueueOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	driveQueue(t, q, items)
	wantPending, wantDone := queueObservable(t, q, items)
	// But the claimed-unfinished ref comes back pending after recovery:
	// fold it into the expectation at the front (expiry/recovery order).
	half := len(items) / 2
	wantPending = append([]QueueItem{items[half]}, wantPending...)

	// Simulate the crash window: snapshot published, log not yet rotated.
	q.mu.Lock()
	if err := q.writeSnapshotLocked(q.gen + 1); err != nil {
		q.mu.Unlock()
		t.Fatal(err)
	}
	q.mu.Unlock()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatalf("recovery from mid-compaction crash failed: %v", err)
	}
	defer func() { _ = q2.Close() }()
	if !q2.ReplayStats().UsedSnapshot {
		t.Fatal("recovery ignored the published snapshot")
	}
	if q2.Gen() == 0 {
		t.Fatal("recovery did not adopt the snapshot generation")
	}
	gotPending, gotDone := queueObservable(t, q2, items)
	if !reflect.DeepEqual(wantPending, gotPending) {
		t.Fatalf("pending after recovery:\nwant: %+v\ngot:  %+v", wantPending, gotPending)
	}
	if !reflect.DeepEqual(wantDone, gotDone) {
		t.Fatalf("done after recovery:\nwant: %v\ngot:  %v", wantDone, gotDone)
	}
	// Recovery finished the rotation: the log now opens with the gen
	// record matching the snapshot.
	recs, err := ReadQueueLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Op != "gen" || recs[0].Gen != q2.Gen() {
		t.Fatalf("rotated log head: %+v", recs[:min(1, len(recs))])
	}
}

func TestQueueRefusesRotatedLogWithoutSnapshot(t *testing.T) {
	items := batchItems(t, queueSpecs(t))
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueueWithOptions(path, QueueOptions{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	driveQueue(t, q, items)
	if q.Gen() == 0 {
		t.Fatal("compaction never triggered")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(queueSnapshotPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenQueue(path); err == nil {
		t.Fatal("opened a rotated log whose snapshot is gone — compacted history silently lost")
	}
}
