package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"roadrunner/internal/wal"
)

// Snapshot compaction bounds restart-replay cost. A snapshot captures
// the queue's *replay-equivalent* state — every known ref in
// enqueue/retry order with its latest key+spec, the done map, and the
// next lease ID — NOT the live pending order: live leases are
// invalidated on recovery anyway, so a leased ref is recorded exactly
// like a pending one and returns to pending on load, which is precisely
// what full-log replay would produce.
//
// Crash safety is a two-step generation protocol:
//
//  1. publish queue.snap.jsonl carrying generation G+1 with wal.Replace —
//     the snapshot appears atomically;
//  2. rotate the log: wal.Replace it with a fresh log whose first record
//     is {"op":"gen","gen":G+1}, and reopen it for appends.
//
// On open, the snapshot generation is compared to the log's gen record:
// equal means snapshot+tail; snapshot ahead means the crash hit between
// steps 1 and 2, the stale log is wholly contained in the snapshot, and
// recovery finishes the rotation; log ahead (or rotated log without its
// snapshot) is real corruption and refuses to open.
//
// A snapshot stores each spec once. The spec of a ref with its two
// per-seed fields cleared (Name and Config.Seed) is its template; refs
// whose templates marshal to the same JSON share one, so a manifest's
// templates are its strategy × scenario × override cells. Each distinct
// template is written once as a snap-spec record just before the first
// snap-ref row that uses it, and a row carries only ref, key, state, the
// template's index among the snapshot's snap-spec records, seed and name.
// Reading rebuilds the spec as template + seed + name, so the rebuilt
// specs of one template share its reference-typed fields (Config.Faults,
// Config.Comm.Channel, Config.Model.Layers) — read-only, as the specs of
// one Expand already share Layers. Rows of earlier builds that inline
// their spec are still read.

// QueueSnapshot is a parsed queue compaction snapshot.
type QueueSnapshot struct {
	// Gen is the generation this snapshot was compacted at; the log tail
	// that extends it carries the same generation in its gen record.
	Gen uint64
	// Next is the next lease ID to grant — preserved so IDs stay
	// never-reused across compactions.
	Next LeaseID
	// Items holds every known ref in enqueue/retry order with its latest
	// key and spec.
	Items []QueueItem
	// Done maps terminal refs to their terminal state.
	Done map[string]RunState
}

// ReadQueueSnapshot parses a queue snapshot file. Unlike the log, a
// snapshot is published atomically, so *any* malformation — a bad record,
// a missing snap-end trailer, a ref-count mismatch, any byte after the
// trailer — is corruption and errors. The torn-tail pardon wal.Read grants
// a log's final record can forgive nothing here: a snapshot that loses its
// final record has no snap-end, and one with bytes after snap-end fails
// the trailer check. A missing file returns an error wrapping
// os.ErrNotExist.
func ReadQueueSnapshot(path string) (*QueueSnapshot, error) {
	snap := &QueueSnapshot{Done: make(map[string]RunState)}
	var begun bool
	var trailer []byte  // the snap-end line and its newline, once read
	var tmpls []RunSpec // snap-spec templates in file order
	err := wal.Read(path, func(line []byte) error {
		if trailer != nil {
			return fmt.Errorf("record after snap-end")
		}
		var rec QueueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		// snap-begin comes first and exactly once.
		if begun == (rec.Op == "snap-begin") {
			return fmt.Errorf("%s is out of place (begun=%v)", rec.Op, begun)
		}
		switch rec.Op {
		case "snap-begin":
			begun = true
			snap.Gen = rec.Gen
			snap.Next = rec.Next
		case "snap-spec":
			if rec.Spec == nil {
				return fmt.Errorf("snap-spec without spec")
			}
			tmpls = append(tmpls, *rec.Spec)
		case "snap-ref":
			spec, err := rowSpec(&rec, tmpls)
			if err != nil {
				return err
			}
			snap.Items = append(snap.Items, QueueItem{Ref: rec.Ref, Key: rec.Key, Spec: spec})
			if rec.State != "" {
				snap.Done[rec.Ref] = rec.State
			}
		case "snap-end":
			if rec.Count != len(snap.Items) {
				return fmt.Errorf("snapshot trailer counts %d refs, read %d", rec.Count, len(snap.Items))
			}
			trailer = append(append([]byte(nil), line...), '\n')
		default:
			return fmt.Errorf("unexpected op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !begun || trailer == nil {
		return nil, fmt.Errorf("snapshot is truncated (begin=%v end=%v)", begun, trailer != nil)
	}
	if err := endsWith(path, trailer); err != nil {
		return nil, err
	}
	return snap, nil
}

// endsWith checks that the file at path ends with tail. Every record
// after snap-end makes the decoder fail, so only a tail wal.Read pardons
// (a rejected final record, blank lines, an unterminated fragment) can
// follow the trailer of a snapshot that decoded, and each of those moves
// the file's last bytes off the trailer line.
func endsWith(path string, tail []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, len(tail))
	if fi.Size() >= int64(len(tail)) {
		if _, err := f.ReadAt(buf, fi.Size()-int64(len(tail))); err != nil {
			return err
		}
	}
	if !bytes.Equal(buf, tail) {
		return fmt.Errorf("bytes follow snap-end")
	}
	return nil
}

// rowSpec resolves a snap-ref row's spec: the inline spec an earlier
// build wrote, or template + seed + name over a snap-spec read before the
// row.
func rowSpec(rec *QueueRecord, tmpls []RunSpec) (RunSpec, error) {
	if rec.Spec != nil {
		if rec.Tmpl != nil || rec.Seed != 0 || rec.Name != "" {
			return RunSpec{}, fmt.Errorf("snap-ref carries both an inline spec and template fields")
		}
		return *rec.Spec, nil
	}
	if rec.Tmpl == nil {
		return RunSpec{}, fmt.Errorf("snap-ref without spec or template")
	}
	i := *rec.Tmpl
	if i < 0 || i >= len(tmpls) {
		return RunSpec{}, fmt.Errorf("snap-ref names template %d, %d read before it", i, len(tmpls))
	}
	spec := tmpls[i]
	spec.Name = rec.Name
	spec.Config.Seed = rec.Seed
	return spec, nil
}

// applySnapshot seeds recovery state from a parsed snapshot.
func (q *Queue) applySnapshot(s *QueueSnapshot) {
	for _, it := range s.Items {
		q.recordKnownLocked(it)
	}
	for ref, st := range s.Done {
		q.done[ref] = st
	}
	q.next = s.Next
	q.stats.UsedSnapshot = true
	q.stats.SnapshotRefs = len(s.Items)
}

// Gen reports the queue's current log generation — 0 until the first
// compaction.
func (q *Queue) Gen() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.gen
}

// CompactFailures counts threshold-triggered compactions that failed.
// The triggering operation itself still succeeded — compaction is an
// optimization, and a failed one only means the next open replays more
// log than it had to.
func (q *Queue) CompactFailures() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.compactFailures
}

// Compact forces a snapshot compaction now, regardless of threshold.
func (q *Queue) Compact() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.compactLocked()
}

// maybeCompactLocked runs a compaction once the log tail has accumulated
// enough per-ref entries. Called at the end of every mutating verb —
// never mid-verb, so the snapshot always captures a fully applied state.
func (q *Queue) maybeCompactLocked() {
	if q.compactEvery <= 0 || q.tailEntries < q.compactEvery {
		return
	}
	if err := q.compactLocked(); err != nil {
		q.compactFailures++
	}
}

// compactLocked snapshots the current state at generation+1 and rotates
// the log. If the rotation fails after the snapshot published, it stays
// owed and every subsequent append retries it first (appendLocked).
func (q *Queue) compactLocked() error {
	gen := q.gen + 1
	if err := q.writeSnapshotLocked(gen); err != nil {
		return fmt.Errorf("campaign: queue snapshot: %w", err)
	}
	q.gen = gen
	if err := q.rotateLogLocked(gen); err != nil {
		return fmt.Errorf("campaign: queue log rotation: %w", err)
	}
	return nil
}

// writeSnapshotLocked atomically publishes a snapshot at gen, each
// distinct spec template once (see the format note at the top).
func (q *Queue) writeSnapshotLocked(gen uint64) error {
	live := 0
	for _, ref := range q.knownOrder {
		if ref != "" {
			live++
		}
	}
	return wal.Replace(q.snapPath, func(put func([]byte) error) error {
		putRec := func(rec QueueRecord) error {
			data, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			return put(data)
		}
		if err := putRec(QueueRecord{Op: "snap-begin", Gen: gen, Next: q.next, Count: live}); err != nil {
			return err
		}
		tmplIdx := make(map[string]int) // template JSON -> index
		for _, ref := range q.knownOrder {
			if ref == "" {
				continue
			}
			it := q.itemOf[ref]
			tmpl := it.Spec
			tmpl.Name, tmpl.Config.Seed = "", 0
			data, err := json.Marshal(tmpl)
			if err != nil {
				return err
			}
			idx, seen := tmplIdx[string(data)]
			if !seen {
				idx = len(tmplIdx)
				tmplIdx[string(data)] = idx
				if err := putRec(QueueRecord{Op: "snap-spec", Spec: &tmpl}); err != nil {
					return err
				}
			}
			row := QueueRecord{Op: "snap-ref", Ref: it.Ref, Key: it.Key, State: q.done[ref],
				Tmpl: &idx, Seed: it.Spec.Config.Seed, Name: it.Spec.Name}
			if err := putRec(row); err != nil {
				return err
			}
		}
		return putRec(QueueRecord{Op: "snap-end", Count: live})
	})
}

// rotateLogLocked replaces the log with a fresh one whose sole record is
// the generation marker and reopens it for appends. The handle is closed
// first and stays nil — rotation owed — until the whole sequence
// succeeds, so a retry after any failure runs the same steps again.
func (q *Queue) rotateLogLocked(gen uint64) error {
	if q.log != nil {
		_ = q.log.Close()
		q.log = nil
	}
	data, err := json.Marshal(QueueRecord{Op: "gen", Gen: gen})
	if err != nil {
		return err
	}
	if err := wal.Replace(q.path, func(put func([]byte) error) error { return put(data) }); err != nil {
		return err
	}
	l, err := wal.Open(q.path, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	q.log = l
	q.tailEntries = 0
	return nil
}
