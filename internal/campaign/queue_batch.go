package campaign

import "fmt"

// The lease verbs are batched — they are the queue's only write path for
// enqueues, claims, starts and completions, and a caller with one ref
// passes a batch of one. A whole batch shares one journal append and one
// fsync. Results carry per-ref error slots — a stale lease or
// already-claimed ref in a batch rejects only its own slot, never its
// siblings. The only whole-batch failure is the journal write itself, in
// which case nothing was applied.

// maxBatchRecordEntries chunks a batched journal append into records of
// at most this many entries, keeping every log line far below
// internal/wal's 16 MiB record ceiling even with spec-carrying entries.
// All chunks of one append share a single fsync.
const maxBatchRecordEntries = 512

// ClaimGrant is one ref's slot in a ClaimBatch result.
type ClaimGrant struct {
	Ref   string
	Lease Lease
	Spec  RunSpec
	Err   error
}

// LeaseResult is one lease's slot in a StartBatch or CompleteBatch
// result.
type LeaseResult struct {
	ID    LeaseID
	Lease Lease
	Err   error
}

// Completion pairs a lease with its terminal outcome for CompleteBatch.
type Completion struct {
	ID    LeaseID
	State RunState
}

// batchRecords chunks one batched verb's entries into log records.
func batchRecords(op, node string, tick Tick, entries []BatchEntry) []QueueRecord {
	var recs []QueueRecord
	for start := 0; start < len(entries); start += maxBatchRecordEntries {
		end := min(start+maxBatchRecordEntries, len(entries))
		recs = append(recs, QueueRecord{Op: op, Node: node, Tick: tick, Batch: entries[start:end]})
	}
	return recs
}

// EnqueueBatch adds a batch of runs under one fsync. Known refs
// (including duplicates within the batch) are skipped, so re-submitting
// a manifest (a resumed campaign re-fanning its runs) is idempotent.
func (q *Queue) EnqueueBatch(items []QueueItem) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	fresh := make([]QueueItem, 0, len(items))
	seen := make(map[string]bool, len(items))
	entries := make([]BatchEntry, 0, len(items))
	for _, it := range items {
		if seen[it.Ref] {
			continue
		}
		if _, known := q.itemOf[it.Ref]; known {
			continue
		}
		seen[it.Ref] = true
		spec := it.Spec
		entries = append(entries, BatchEntry{Ref: it.Ref, Key: it.Key, Spec: &spec})
		fresh = append(fresh, it)
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := q.appendLocked(batchRecords("enqueue-batch", "", 0, entries)...); err != nil {
		return err
	}
	for _, it := range fresh {
		q.recordKnownLocked(it)
		q.slots[it.Ref] = q.pending.pushBack(it)
	}
	q.maybeCompactLocked()
	return nil
}

// ClaimBatch grants leases on a batch of pending refs to node, expiring
// at now+ttl unless extended by heartbeats, under one journal append.
// Refs that are not pending — or repeated within the batch — fail only
// their own slot with ErrNotPending. The returned slice is positionally
// aligned with refs.
func (q *Queue) ClaimBatch(refs []string, node string, now, ttl Tick) ([]ClaimGrant, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]ClaimGrant, len(refs))
	entries := make([]BatchEntry, 0, len(refs))
	seen := make(map[string]bool, len(refs))
	id := q.next
	for i, ref := range refs {
		out[i].Ref = ref
		nd, ok := q.slots[ref]
		if !ok || seen[ref] {
			out[i].Err = fmt.Errorf("%w: %s", ErrNotPending, ref)
			continue
		}
		seen[ref] = true
		item := nd.item
		out[i].Lease = Lease{ID: id, Ref: item.Ref, Key: item.Key, Node: node, Granted: now, Expires: now + ttl, runSpec: item.Spec}
		out[i].Spec = item.Spec
		entries = append(entries, BatchEntry{Ref: item.Ref, Key: item.Key, Lease: id})
		id++
	}
	if len(entries) == 0 {
		return out, nil
	}
	if err := q.appendLocked(batchRecords("claim-batch", node, now, entries)...); err != nil {
		return nil, err
	}
	q.next = id
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		l := out[i].Lease
		q.pending.remove(q.slots[l.Ref])
		delete(q.slots, l.Ref)
		q.leases[l.Ref] = &l
		q.byID[l.ID] = &l
	}
	q.maybeCompactLocked()
	return out, nil
}

// StartBatch passes a batch of leases through the execution gate under
// one journal append: a node must pass it before running a claimed spec,
// which is what keeps a stolen backlog entry from being executed twice.
// Stale leases (stolen, expired, or superseded) fail only their own slot
// with ErrStaleLease. The returned slice is positionally aligned with ids.
func (q *Queue) StartBatch(ids []LeaseID) ([]LeaseResult, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]LeaseResult, len(ids))
	entries := make([]BatchEntry, 0, len(ids))
	for i, id := range ids {
		out[i].ID = id
		l, ok := q.byID[id]
		if !ok {
			out[i].Err = fmt.Errorf("%w: lease %d", ErrStaleLease, id)
			continue
		}
		entries = append(entries, BatchEntry{Ref: l.Ref, Key: l.Key, Lease: id})
	}
	if len(entries) == 0 {
		return out, nil
	}
	if err := q.appendLocked(batchRecords("start-batch", "", 0, entries)...); err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Err == nil {
			l := q.byID[out[i].ID]
			l.Started = true
			out[i].Lease = *l
		}
	}
	q.maybeCompactLocked()
	return out, nil
}

// CompleteBatch finishes a batch of started leases with their terminal
// states under one journal append. Only the live lease that passed
// StartBatch can complete its ref: stale, never-started, or
// within-batch-duplicated leases fail only their own slot with
// ErrStaleLease and leave the re-issued attempt in charge. The returned
// slice is positionally aligned with completions.
func (q *Queue) CompleteBatch(completions []Completion) ([]LeaseResult, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]LeaseResult, len(completions))
	entries := make([]BatchEntry, 0, len(completions))
	seen := make(map[LeaseID]bool, len(completions))
	for i, c := range completions {
		out[i].ID = c.ID
		l, ok := q.byID[c.ID]
		switch {
		case !ok:
			out[i].Err = fmt.Errorf("%w: lease %d", ErrStaleLease, c.ID)
		case seen[c.ID]:
			out[i].Err = fmt.Errorf("%w: lease %d completed earlier in batch", ErrStaleLease, c.ID)
		case !c.State.Terminal():
			out[i].Err = fmt.Errorf("campaign: complete with non-terminal state %q", c.State)
		case !l.Started:
			out[i].Err = fmt.Errorf("%w: lease %d never started its run", ErrStaleLease, c.ID)
		default:
			seen[c.ID] = true
			entries = append(entries, BatchEntry{Ref: l.Ref, Key: l.Key, Lease: c.ID, State: c.State})
		}
	}
	if len(entries) == 0 {
		return out, nil
	}
	if err := q.appendLocked(batchRecords("complete-batch", "", 0, entries)...); err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		l := q.byID[out[i].ID]
		out[i].Lease = *l
		delete(q.byID, l.ID)
		delete(q.leases, l.Ref)
		q.done[l.Ref] = completions[i].State
	}
	q.maybeCompactLocked()
	return out, nil
}
