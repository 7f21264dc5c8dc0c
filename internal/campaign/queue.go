package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"roadrunner/internal/wal"
)

// The cluster work queue is the durable tier a coordinator fans campaigns
// across worker nodes through. It is deliberately wall-clock-free: leases
// expire on a logical tick counter the coordinator advances (in production
// from a service-edge timer, in tests from the chaos harness's round
// loop), so every claim/expiry/steal interleaving is enumerable and
// reproducible.
//
// Protocol invariants (the property tests in internal/cluster/chaostest
// replay the queue log to check them):
//
//   - at most one live lease exists per run ref at any moment;
//   - execution is gated on StartBatch, which only a live lease passes — a
//     stolen or expired lease discovers that before running, not after;
//   - a completion is accepted only from the lease that started the run, so a
//     node whose lease expired mid-run cannot overwrite the re-issued
//     attempt's outcome (its store Put is harmless: content addressing
//     makes both writers' bytes identical);
//   - an expired or stolen claim is re-queued at the front, so recovery
//     work is re-issued before new work.
//
// At manifest scales of 10^5-10^6 runs, two amortizations keep the queue
// off the critical path: the lease verbs are batched (queue_batch.go) and
// journal one fsync'd multi-ref record for a whole batch of
// claims/starts/completes, and snapshot compaction (queue_snapshot.go)
// bounds how much log a restarted coordinator replays.

// Tick is the queue's logical clock. The coordinator owns advancement;
// nothing in the lease protocol reads the host clock.
type Tick int64

// LeaseID identifies one claim grant. IDs are never reused, which is what
// lets StartBatch and CompleteBatch detect stale claims after a steal or
// expiry.
type LeaseID uint64

// Queue errors distinguish protocol rejections from I/O failures.
var (
	// ErrStaleLease: the lease was expired, stolen, or already completed.
	ErrStaleLease = errors.New("campaign: stale lease")
	// ErrNotPending: the ref is not claimable (unknown, leased, or done).
	ErrNotPending = errors.New("campaign: run not pending")
	// ErrNotStealable: the lease is not live, already started, or owned by
	// the would-be thief.
	ErrNotStealable = errors.New("campaign: lease not stealable")
)

// QueueItem is one pending unit of cluster work: a campaign-scoped ref,
// the run's content address, and the spec a node needs to execute it.
type QueueItem struct {
	Ref  string  `json:"ref"`
	Key  string  `json:"key"`
	Spec RunSpec `json:"spec"`
}

// Lease is one claim on a queued run. It carries the claimed spec
// privately so an expired claim can re-enter the pending queue without a
// side lookup.
type Lease struct {
	ID      LeaseID `json:"id"`
	Ref     string  `json:"ref"`
	Key     string  `json:"key"`
	Node    string  `json:"node"`
	Granted Tick    `json:"granted"`
	Expires Tick    `json:"expires"`
	Started bool    `json:"started,omitempty"`

	runSpec RunSpec
}

// QueueRecord is one line of the queue log (or snapshot). The queue
// writes a batched verb carrying per-ref entries — enqueue-batch,
// claim-batch, start-batch, complete-batch, expire-batch — a single-ref
// steal or retry, the log generation marker gen, or a snapshot line
// (snap-begin, snap-spec, snap-ref, snap-end). The single-ref enqueue,
// claim, start, complete and expire records of earlier builds, and their
// snap-ref rows with an inline spec, are read-only history: replay still
// applies them, nothing writes them. The log is both the queue's recovery
// source and the evidence trail the chaos property tests replay.
type QueueRecord struct {
	Op    string       `json:"op"`
	Ref   string       `json:"ref,omitempty"`
	Key   string       `json:"key,omitempty"`
	Node  string       `json:"node,omitempty"`
	Lease LeaseID      `json:"lease,omitempty"`
	Tick  Tick         `json:"tick,omitempty"`
	State RunState     `json:"state,omitempty"`
	Spec  *RunSpec     `json:"spec,omitempty"`
	Batch []BatchEntry `json:"batch,omitempty"`
	// Gen is the log generation (gen and snap-begin records): a log tail
	// belongs to the snapshot carrying the same generation.
	Gen uint64 `json:"gen,omitempty"`
	// Next is the next lease ID to grant (snap-begin records).
	Next LeaseID `json:"next,omitempty"`
	// Count is the number of refs a snapshot carries (snap-begin and
	// snap-end records), the torn-snapshot tripwire.
	Count int `json:"count,omitempty"`
	// Tmpl, Seed and Name are a snap-ref row's spec: the Tmpl-th snap-spec
	// template of its snapshot with Config.Seed and Name filled in.
	Tmpl *int   `json:"tmpl,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	Name string `json:"name,omitempty"`
}

// BatchEntry is one ref's slot inside a batched log record.
type BatchEntry struct {
	Ref   string   `json:"ref,omitempty"`
	Key   string   `json:"key,omitempty"`
	Lease LeaseID  `json:"lease,omitempty"`
	State RunState `json:"state,omitempty"`
	Spec  *RunSpec `json:"spec,omitempty"`
}

// itemNode is one deque slot; nodes are linked so claim-by-ref removal
// through the ref index is O(1) instead of an O(n) pending scan.
type itemNode struct {
	item       QueueItem
	prev, next *itemNode
}

// itemDeque is a doubly-linked pending deque with sentinel ends.
type itemDeque struct {
	head, tail itemNode // sentinels
	n          int
}

func (d *itemDeque) init() {
	d.head.next = &d.tail
	d.tail.prev = &d.head
	d.n = 0
}

func (d *itemDeque) insertAfter(at *itemNode, it QueueItem) *itemNode {
	nd := &itemNode{item: it, prev: at, next: at.next}
	at.next.prev = nd
	at.next = nd
	d.n++
	return nd
}

func (d *itemDeque) pushBack(it QueueItem) *itemNode  { return d.insertAfter(d.tail.prev, it) }
func (d *itemDeque) pushFront(it QueueItem) *itemNode { return d.insertAfter(&d.head, it) }

func (d *itemDeque) remove(nd *itemNode) {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	nd.prev, nd.next = nil, nil
	d.n--
}

// snapshot copies up to k items in queue order; k < 0 copies all.
func (d *itemDeque) snapshot(k int) []QueueItem {
	if k < 0 || k > d.n {
		k = d.n
	}
	out := make([]QueueItem, 0, k)
	for nd := d.head.next; nd != &d.tail && len(out) < k; nd = nd.next {
		out = append(out, nd.item)
	}
	return out
}

// QueueOptions tunes a queue's durability amortization.
type QueueOptions struct {
	// CompactEvery triggers snapshot compaction after this many per-ref
	// journal entries have accumulated since the last snapshot. 0 selects
	// DefaultCompactEvery; negative disables compaction.
	CompactEvery int
}

// DefaultCompactEvery is the compaction threshold used when none is
// configured: large enough that small campaigns never compact, small
// enough that a week-old coordinator replays a bounded tail.
const DefaultCompactEvery = 1 << 14

// ReplayStats reports what OpenQueue read to reconstruct state — the
// evidence that snapshot+tail replay touches only the tail.
type ReplayStats struct {
	// UsedSnapshot reports whether a snapshot seeded the state.
	UsedSnapshot bool `json:"used_snapshot"`
	// SnapshotRefs counts refs loaded from the snapshot.
	SnapshotRefs int `json:"snapshot_refs"`
	// LogEntries counts per-ref entries replayed from the log (batch
	// records count one entry per ref they carry).
	LogEntries int `json:"log_entries"`
}

// Queue is a durable, lease-based work queue. Every state change appends
// an fsync'd record to an internal/wal log, the campaign journal's
// discipline: a coordinator crash mid-campaign recovers the queue by
// replaying the snapshot plus the log tail (live leases are invalidated
// on recovery — they belonged to the dead coordinator's epoch). Lease
// extension on heartbeat is deliberately NOT journaled: recovery
// re-issues outstanding claims anyway, so extends are pure in-memory
// bookkeeping and the log stays proportional to the number of runs, not
// heartbeats.
type Queue struct {
	mu       sync.Mutex
	log      *wal.Log // nil while a log rotation to gen is still owed
	path     string
	snapPath string

	pending itemDeque
	slots   map[string]*itemNode // ref -> pending deque node
	leases  map[string]*Lease    // ref -> live lease
	byID    map[LeaseID]*Lease   // live leases by grant id
	done    map[string]RunState  // ref -> terminal state

	// knownOrder/orderPos/itemOf mirror exactly what full-log replay
	// reconstructs — every ref ever enqueued, in enqueue/retry order,
	// with its latest key+spec — so a snapshot written from them is
	// replay-equivalent by construction. Retries tombstone their old
	// position ("") and append, matching replay's move-to-back.
	knownOrder []string
	orderPos   map[string]int
	itemOf     map[string]QueueItem

	next LeaseID

	gen             uint64
	compactEvery    int
	tailEntries     int
	compactFailures int
	stats           ReplayStats
}

// QueueLogPath locates the cluster coordinator's durable queue log
// inside the store — the queue shares the store's directory tier so a
// coordinator restart finds both its results and its outstanding work in
// one place.
func (s *Store) QueueLogPath() string {
	return filepath.Join(s.root, "cluster", "queue.jsonl")
}

// QueueSnapshotPath locates the queue's compaction snapshot beside the
// log.
func (s *Store) QueueSnapshotPath() string {
	return queueSnapshotPath(s.QueueLogPath())
}

// queueSnapshotPath derives the snapshot path from the log path.
func queueSnapshotPath(logPath string) string {
	if base, ok := strings.CutSuffix(logPath, ".jsonl"); ok {
		return base + ".snap.jsonl"
	}
	return logPath + ".snap"
}

// OpenQueue opens (creating if needed) the queue log at path and replays
// it with default options. Refs that were claimed but not completed when
// the previous coordinator died return to pending, preserving enqueue
// order.
func OpenQueue(path string) (*Queue, error) {
	return OpenQueueWithOptions(path, QueueOptions{})
}

// OpenQueueWithOptions opens the queue log at path, loading the
// compaction snapshot (if one exists) plus the log tail. A compaction
// interrupted by a crash — snapshot renamed, log not yet rotated — is
// finished here before the queue accepts writes.
func OpenQueueWithOptions(path string, opts QueueOptions) (*Queue, error) {
	q := &Queue{
		path:     path,
		snapPath: queueSnapshotPath(path),
		slots:    make(map[string]*itemNode),
		leases:   make(map[string]*Lease),
		byID:     make(map[LeaseID]*Lease),
		done:     make(map[string]RunState),
		orderPos: make(map[string]int),
		itemOf:   make(map[string]QueueItem),
	}
	q.pending.init()
	q.compactEvery = opts.CompactEvery
	if q.compactEvery == 0 {
		q.compactEvery = DefaultCompactEvery
	}
	if err := q.load(); err != nil {
		return nil, err
	}
	return q, nil
}

// load rebuilds queue state from the snapshot (if any) and one replay
// pass over the log, which leaves the log open for appends. The log's
// generation is its first record — the marker a rotation writes — and
// decides, before any record is applied, how log and snapshot relate.
func (q *Queue) load() error {
	snap, err := ReadQueueSnapshot(q.snapPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("campaign: queue snapshot: %w", err)
	}
	var (
		seeded bool  // the log generation is known and the snapshot applied
		stale  bool  // the snapshot supersedes the whole log
		refuse error // log and snapshot cannot belong together
	)
	seed := func(logGen uint64) {
		seeded = true
		switch {
		case snap == nil && logGen == 0:
		case snap == nil:
			// A rotated log without its snapshot means compacted history is
			// gone; refusing to open is the only honest answer.
			refuse = fmt.Errorf("campaign: queue log at generation %d but snapshot %s is missing", logGen, q.snapPath)
		case logGen > snap.Gen:
			refuse = fmt.Errorf("campaign: queue log generation %d is ahead of snapshot generation %d", logGen, snap.Gen)
		default:
			// logGen < snap.Gen is a crash between the snapshot rename and
			// the log rotation: the snapshot already contains everything
			// the stale log holds, so its records are skipped and the
			// interrupted rotation is finished below.
			q.applySnapshot(snap)
			q.gen = snap.Gen
			stale = logGen < snap.Gen
		}
	}
	q.log, err = wal.Open(q.path, func(line []byte) error {
		var rec QueueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if !seeded {
			var logGen uint64
			if rec.Op == "gen" {
				logGen = rec.Gen
			}
			seed(logGen)
		}
		if refuse == nil && !stale {
			n := q.applyReplayRecord(&rec)
			q.stats.LogEntries += n
			q.tailEntries += n
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("campaign: replay queue: %w", err)
	}
	if !seeded {
		seed(0) // absent, empty or wholly torn log
	}
	if refuse != nil {
		_ = q.log.Close()
		return refuse
	}
	if stale {
		if err := q.rotateLogLocked(snap.Gen); err != nil {
			return err
		}
	}
	q.rebuildPendingLocked()
	return nil
}

// recordEntries counts the per-ref entries a record carries — the unit
// the compaction threshold is measured in.
func recordEntries(rec *QueueRecord) int {
	if rec.Op == "gen" {
		return 0
	}
	return max(len(rec.Batch), 1)
}

// applyReplayRecord folds one log record into recovery state and reports
// how many per-ref entries it carried. A single-ref record — the only
// kind earlier builds wrote, and still the shape of steal and retry — is
// read as a batch of one.
func (q *Queue) applyReplayRecord(rec *QueueRecord) int {
	op, batched := strings.CutSuffix(rec.Op, "-batch")
	entries := rec.Batch
	if !batched {
		entries = []BatchEntry{{Ref: rec.Ref, Key: rec.Key, Lease: rec.Lease, State: rec.State, Spec: rec.Spec}}
	}
	for _, e := range entries {
		switch op {
		case "enqueue":
			if e.Spec != nil {
				q.recordKnownLocked(QueueItem{Ref: e.Ref, Key: e.Key, Spec: *e.Spec})
			}
		case "claim", "steal":
			if e.Lease >= q.next {
				q.next = e.Lease + 1
			}
		case "complete":
			if e.Ref != "" {
				q.done[e.Ref] = e.State
			}
		case "retry":
			if e.Ref != "" {
				delete(q.done, e.Ref)
				if e.Spec != nil {
					// Honor the retry-time key/spec and its move-to-back: the
					// live queue re-queued this item at the tail with the spec
					// the retry carried, and replayed state must match it.
					q.refreshKnownLocked(QueueItem{Ref: e.Ref, Key: e.Key, Spec: *e.Spec})
				}
			}
		}
	}
	return recordEntries(rec)
}

// recordKnownLocked registers a first-time ref in enqueue order; known
// refs are left untouched (re-enqueue is a no-op).
func (q *Queue) recordKnownLocked(it QueueItem) {
	if _, known := q.orderPos[it.Ref]; known {
		return
	}
	q.orderPos[it.Ref] = len(q.knownOrder)
	q.knownOrder = append(q.knownOrder, it.Ref)
	q.itemOf[it.Ref] = it
}

// refreshKnownLocked moves a ref to the back of the known order with a
// fresh key+spec — the retry path. Unknown refs are added.
func (q *Queue) refreshKnownLocked(it QueueItem) {
	if pos, known := q.orderPos[it.Ref]; known {
		q.knownOrder[pos] = "" // tombstone; skipped on iteration
	}
	q.orderPos[it.Ref] = len(q.knownOrder)
	q.knownOrder = append(q.knownOrder, it.Ref)
	q.itemOf[it.Ref] = it
}

// rebuildPendingLocked derives the pending deque from recovery state:
// every known, non-terminal ref in order. Live leases from the previous
// epoch were never loaded, so their refs land here — re-issued.
func (q *Queue) rebuildPendingLocked() {
	for _, ref := range q.knownOrder {
		if ref == "" {
			continue
		}
		if _, finished := q.done[ref]; finished {
			continue
		}
		q.slots[ref] = q.pending.pushBack(q.itemOf[ref])
	}
}

// appendLocked journals a group of records under one fsync, so a granted
// claim or a completion is durable before the caller acts on it.
func (q *Queue) appendLocked(recs ...QueueRecord) error {
	// A rotation still owed is retried first: once the snapshot at q.gen
	// exists, appending to the log of an older generation would write
	// records that recovery discards.
	if q.log == nil {
		if err := q.rotateLogLocked(q.gen); err != nil {
			return fmt.Errorf("campaign: queue log rotation to generation %d still owed: %w", q.gen, err)
		}
	}
	lines := make([][]byte, len(recs))
	entries := 0
	for i := range recs {
		data, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("campaign: queue log: %w", err)
		}
		lines[i] = data
		entries += recordEntries(&recs[i])
	}
	if err := q.log.Append(lines...); err != nil {
		return fmt.Errorf("campaign: queue log: %w", err)
	}
	q.tailEntries += entries
	return nil
}

// Close releases the queue log handle.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.log == nil {
		return nil
	}
	return q.log.Close()
}

// ReplayStats reports what the queue read at open time.
func (q *Queue) ReplayStats() ReplayStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Known reports whether a ref was ever enqueued (pending, leased, or
// terminal).
func (q *Queue) Known(ref string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.itemOf[ref]
	return ok
}

// Outstanding reports how many refs are admitted but not yet terminal —
// the quantity admission backpressure caps.
func (q *Queue) Outstanding() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.n + len(q.leases)
}

// Pending returns a snapshot of the claimable items in queue order — the
// routing policies' half of the (queue state, node stats) input.
func (q *Queue) Pending() []QueueItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.snapshot(-1)
}

// PendingFront returns up to k claimable items from the front of the
// queue — the bounded projection coordinators hand to routing policies
// so a 10^5-deep backlog does not cost O(n) per work request.
func (q *Queue) PendingFront(k int) []QueueItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.snapshot(k)
}

// Leases returns a snapshot of the live leases, ordered by grant ID so
// the view is deterministic.
func (q *Queue) Leases() []Lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Lease, 0, len(q.byID))
	for _, l := range q.byID {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LeaseByID resolves one live lease — the coordinator's O(1) ownership
// check on start/complete reports.
func (q *Queue) LeaseByID(id LeaseID) (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.byID[id]
	if !ok {
		return Lease{}, false
	}
	return *l, true
}

// Extend refreshes every live lease held by node to expire at now+ttl —
// the heartbeat path. Extends are in-memory only (see Queue's doc).
func (q *Queue) Extend(node string, now, ttl Tick) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, l := range q.leases {
		if l.Node == node {
			l.Expires = now + ttl
		}
	}
}

// Retry clears a ref's terminal state and re-queues it — the resume path
// for a run whose journaled outcome can no longer be served from the
// store (a failed run, or a done run whose entry was evicted). The ref
// becomes claimable again under a fresh lease; without this, a resumed
// campaign would count the ref as outstanding while the queue forever
// refused to re-issue it.
func (q *Queue) Retry(ref, key string, spec RunSpec) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, done := q.done[ref]; !done {
		return fmt.Errorf("campaign: retry of non-terminal ref %s", ref)
	}
	if err := q.appendLocked(QueueRecord{Op: "retry", Ref: ref, Key: key, Spec: &spec}); err != nil {
		return err
	}
	delete(q.done, ref)
	it := QueueItem{Ref: ref, Key: key, Spec: spec}
	q.refreshKnownLocked(it)
	q.slots[ref] = q.pending.pushBack(it)
	q.maybeCompactLocked()
	return nil
}

// ExpireLeases revokes every lease whose expiry has passed and re-queues
// its run at the front, returning the revoked leases in grant order. This
// is the node-failure recovery path: a dead node stops heartbeating, its
// leases expire, and its claims are re-issued to live nodes. All expiries
// of one sweep share a single fsync'd expire-batch record, so a mass node
// death at 10^5 leases is not 10^5 syncs.
func (q *Queue) ExpireLeases(now Tick) []Lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]LeaseID, 0, len(q.byID))
	for id, l := range q.byID {
		if l.Expires <= now {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]BatchEntry, len(ids))
	for i, id := range ids {
		l := q.byID[id]
		entries[i] = BatchEntry{Ref: l.Ref, Key: l.Key, Lease: id}
	}
	if err := q.appendLocked(batchRecords("expire-batch", "", now, entries)...); err != nil {
		return nil // keep the leases; a later sweep retries the journal write
	}
	expired := make([]Lease, 0, len(ids))
	for _, id := range ids {
		l := q.byID[id]
		expired = append(expired, *l)
		delete(q.byID, id)
		delete(q.leases, l.Ref)
		q.slots[l.Ref] = q.pending.pushFront(QueueItem{Ref: l.Ref, Key: l.Key, Spec: l.runSpec})
	}
	q.maybeCompactLocked()
	return expired
}

// Steal revokes another node's live, not-yet-started lease and re-grants
// the run to thief — the work-stealing path for stragglers. A started
// lease is not stealable: the victim is executing, and revoking it would
// make the "no run executes twice" property depend on racing the victim.
func (q *Queue) Steal(ref, thief string, now, ttl Tick) (Lease, RunSpec, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	victim, ok := q.leases[ref]
	if !ok || victim.Started || victim.Node == thief {
		return Lease{}, RunSpec{}, fmt.Errorf("%w: %s", ErrNotStealable, ref)
	}
	lease := &Lease{ID: q.next, Ref: ref, Key: victim.Key, Node: thief, Granted: now, Expires: now + ttl, runSpec: victim.runSpec}
	if err := q.appendLocked(QueueRecord{Op: "steal", Ref: ref, Key: victim.Key, Node: thief, Lease: lease.ID, Tick: now}); err != nil {
		return Lease{}, RunSpec{}, err
	}
	q.next++
	delete(q.byID, victim.ID)
	q.leases[ref] = lease
	q.byID[lease.ID] = lease
	q.maybeCompactLocked()
	return *lease, lease.runSpec, nil
}

// Done reports a ref's terminal state, if it has one.
func (q *Queue) Done(ref string) (RunState, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	st, ok := q.done[ref]
	return st, ok
}

// Depth reports how many runs are pending and how many are leased.
func (q *Queue) Depth() (pending, leased int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.n, len(q.leases)
}

// ReadQueueLog parses a queue log into its records — the evidence trail
// the chaos property tests assert protocol invariants over. A torn
// trailing record is dropped, mirroring replay; a malformed record
// followed by further records is corruption and errors, also mirroring
// replay.
func ReadQueueLog(path string) ([]QueueRecord, error) {
	var recs []QueueRecord
	err := wal.Read(path, func(line []byte) error {
		var rec QueueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: read queue log: %w", err)
	}
	return recs, nil
}
