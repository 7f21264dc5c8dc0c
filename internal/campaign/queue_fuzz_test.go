package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzQueueLogReplay feeds arbitrary byte-level mutations of queue logs
// to OpenQueue. Whatever the bytes, replay must never panic; when a log
// is accepted, the replayed state must be internally consistent and
// deterministic: no ref both pending and done, no duplicate pending
// refs, and a second replay of the same bytes reconstructs the same
// state.
func FuzzQueueLogReplay(f *testing.F) {
	// Seed with a realistic log: batch verbs, a batch of one, expiry, retry.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.jsonl")
	q, err := OpenQueueWithOptions(seedPath, QueueOptions{CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	specs, err := tinyManifest().Expand()
	if err != nil {
		f.Fatal(err)
	}
	var items []QueueItem
	for _, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			f.Fatal(err)
		}
		items = append(items, QueueItem{Ref: "c1/" + key, Key: key, Spec: spec})
	}
	if err := q.EnqueueBatch(items); err != nil {
		f.Fatal(err)
	}
	grants, err := q.ClaimBatch([]string{items[0].Ref, items[1].Ref}, "w1", 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := start1(q, grants[0].Lease.ID); err != nil {
		f.Fatal(err)
	}
	if _, err := complete1(q, grants[0].Lease.ID, RunFailed); err != nil {
		f.Fatal(err)
	}
	if err := q.Retry(items[0].Ref, items[1].Key, items[1].Spec); err != nil {
		f.Fatal(err)
	}
	q.ExpireLeases(10)
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A log the parent build wrote with the single-ref verbs: replay-only
	// history now, and the fuzzer keeps mutating it.
	legacy, err := os.ReadFile(filepath.Join("testdata", "queue_single_verbs_6f08feb.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(`{"op":"gen","gen":3}` + "\n"))
	f.Add([]byte(`{"op":"enqueue","ref":"r1","key":"k1","spec":{}}` + "\n" + `{"op":` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "queue.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path)
		if err != nil {
			return // rejected logs are fine; panics are not
		}
		pending := q.Pending()
		seen := make(map[string]bool, len(pending))
		for _, it := range pending {
			if seen[it.Ref] {
				t.Fatalf("ref %q pending twice", it.Ref)
			}
			seen[it.Ref] = true
			if st, done := q.Done(it.Ref); done {
				t.Fatalf("ref %q both pending and done (%v)", it.Ref, st)
			}
			if !q.Known(it.Ref) {
				t.Fatalf("pending ref %q not known", it.Ref)
			}
		}
		if len(q.Leases()) != 0 {
			t.Fatal("replay resurrected live leases")
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		// Determinism: the same bytes replay to the same state.
		q2, err := OpenQueue(path)
		if err != nil {
			t.Fatalf("second replay of accepted log failed: %v", err)
		}
		if !reflect.DeepEqual(pending, q2.Pending()) {
			t.Fatal("second replay diverged")
		}
		_ = q2.Close()
	})
}

// FuzzQueueSnapshot feeds arbitrary bytes to ReadQueueSnapshot and, when
// they parse, to OpenQueue as the snapshot beside an absent log — the
// state a crash between snapshot publish and log rotation leaves. Neither
// may panic; an accepted snapshot must be closed (its trailer counted
// its refs), and the queue recovered from it must be consistent, at the
// snapshot's generation, and identical on a second open.
func FuzzQueueSnapshot(f *testing.F) {
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "queue.jsonl")
	q, err := OpenQueueWithOptions(seedPath, QueueOptions{CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	specs, err := tinyManifest().Expand()
	if err != nil {
		f.Fatal(err)
	}
	var items []QueueItem
	for _, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			f.Fatal(err)
		}
		items = append(items, QueueItem{Ref: "c1/" + key, Key: key, Spec: spec})
	}
	if err := q.EnqueueBatch(items); err != nil {
		f.Fatal(err)
	}
	lease, _, err := claim1(q, items[0].Ref, "w1", 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := start1(q, lease.ID); err != nil {
		f.Fatal(err)
	}
	if _, err := complete1(q, lease.ID, RunDone); err != nil {
		f.Fatal(err)
	}
	if err := q.Compact(); err != nil {
		f.Fatal(err)
	}
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(queueSnapshotPath(seedPath))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"op":"snap-begin","gen":2,"next":7}` + "\n" + `{"op":"snap-end"}` + "\n"))
	f.Add([]byte(`{"op":"snap-begin","gen":1}` + "\n" + `{"op":"snap-ref","ref":"r","key":"k","state":"done","spec":{}}` + "\n" +
		`{"op":"snap-ref","ref":"r","key":"k2","spec":{}}` + "\n" + `{"op":"snap-end","count":2}` + "\n"))
	f.Add([]byte(`{"op":"snap-end"}` + "\n"))
	f.Add([]byte(templateSnapshot))
	for _, tc := range hostileSnapshots {
		f.Add([]byte(tc.data))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "queue.jsonl")
		if err := os.WriteFile(queueSnapshotPath(path), data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadQueueSnapshot(queueSnapshotPath(path))
		if err != nil {
			if _, err := OpenQueue(path); err == nil {
				t.Fatal("queue opened over a snapshot its reader refuses")
			}
			return
		}
		for ref := range snap.Done {
			known := false
			for _, it := range snap.Items {
				known = known || it.Ref == ref
			}
			if !known {
				t.Fatalf("done ref %q has no snap-ref", ref)
			}
		}
		q, err := OpenQueue(path)
		if err != nil {
			t.Fatalf("accepted snapshot does not open: %v", err)
		}
		if q.Gen() != snap.Gen || !q.ReplayStats().UsedSnapshot {
			t.Fatalf("queue at gen %d, snapshot at %d (%+v)", q.Gen(), snap.Gen, q.ReplayStats())
		}
		pending := q.Pending()
		seen := make(map[string]bool, len(pending))
		for _, it := range pending {
			if seen[it.Ref] {
				t.Fatalf("ref %q pending twice", it.Ref)
			}
			seen[it.Ref] = true
			if st, done := q.Done(it.Ref); done {
				t.Fatalf("ref %q both pending and done (%v)", it.Ref, st)
			}
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		q2, err := OpenQueue(path)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if !reflect.DeepEqual(pending, q2.Pending()) {
			t.Fatal("second open diverged")
		}
		_ = q2.Close()
	})
}
