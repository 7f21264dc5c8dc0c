package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"roadrunner/internal/campaign"
)

// Options configures a Coordinator.
type Options struct {
	// Store is the shared result tier. Required: the queue log and
	// campaign journals live inside it.
	Store *campaign.Store
	// Policy routes pending runs to requesting nodes; nil selects
	// RoundRobin.
	Policy Policy
	// LeaseTTL is how many ticks a claim stays live without a heartbeat;
	// <= 0 selects 5. A node that misses LeaseTTL ticks of heartbeats is
	// also marked dead.
	LeaseTTL campaign.Tick
	// StealAfter is how many ticks an unstarted claim may sit on a node
	// before another idle node may steal it; <= 0 selects 3.
	StealAfter campaign.Tick
	// CompactEvery is the queue's snapshot-compaction threshold in
	// journal entries; 0 selects the queue default, negative disables.
	CompactEvery int
	// MaxOutstanding caps admitted-but-unfinished runs (pending+leased)
	// across all campaigns. A Submit that would push past the cap is
	// rejected with ErrBacklogFull — admission backpressure for
	// manifests that outnumber fleet capacity. <= 0 means uncapped.
	MaxOutstanding int
}

// ErrUnknownNode reports a heartbeat or work request from a node this
// coordinator never registered — to a worker, the sign that the
// coordinator restarted and it must join again.
var ErrUnknownNode = errors.New("cluster: unknown node")

// ErrUnknownCampaign reports a lookup for a campaign the coordinator
// does not hold.
var ErrUnknownCampaign = errors.New("cluster: unknown campaign")

// ErrBacklogFull reports a submission rejected by admission
// backpressure: the queue already holds MaxOutstanding unfinished runs.
// The HTTP layer maps this to 429 with a Retry-After hint; the manifest
// is safe to resubmit verbatim once the backlog drains.
var ErrBacklogFull = errors.New("cluster: backlog full")

// node is the coordinator's book-keeping for one registered worker.
type node struct {
	name     string
	capacity int
	lastSeen campaign.Tick
	alive    bool
	inflight int
	granted  int
	executed int
	cached   int
	groups   map[string]bool
}

// runningCampaign binds a submitted campaign to its outstanding work.
type runningCampaign struct {
	c *campaign.Campaign
	// byRef maps each queue ref to the campaign run indices it resolves
	// (duplicate specs inside one manifest share a ref).
	byRef map[string][]int
	// groups caches each ref's world-group fingerprint for routing.
	groups map[string]string
	// remaining counts refs not yet terminal; 0 means the campaign is done.
	remaining int
}

// Coordinator owns the cluster's control plane: the durable queue,
// campaign journals, node liveness, routing, and the event stream. All
// methods are safe for concurrent use. Mutations collect events under the
// lock and hand them to subscribers before releasing it, so every
// subscription sees them in lock order; observers run after the lock is
// released, so they (the chaos harness) may call back into the
// coordinator.
type Coordinator struct {
	store          *campaign.Store
	queue          *campaign.Queue
	policy         Policy
	leaseTTL       campaign.Tick
	stealAfter     campaign.Tick
	maxOutstanding int

	mu        sync.Mutex
	now       campaign.Tick
	seq       int
	nodes     map[string]*node
	campaigns map[string]*runningCampaign
	order     []string
	// Lifetime tallies of terminal refs, for Stats.
	executed, cached, failed uint64

	observers []func(Event)
	subs      []*subscriber
}

// subscriber is one campaign's progress listener. Sends never block the
// coordinator, so a stalled listener can drop intermediate events; lossy
// records that a drop happened, and the next event with buffer space is
// preceded by a full "campaign" status snapshot covering everything the
// listener missed.
type subscriber struct {
	rc    *runningCampaign
	ch    chan Event
	lossy bool
}

// subscriberBuffer is each listener's channel capacity. It only needs to
// absorb short bursts: a listener that stalls past it is healed by the
// snapshot resync, and the terminal event is delivered unconditionally,
// so correctness never depends on the buffer size.
const subscriberBuffer = 256

// NewCoordinator opens (or recovers) the coordinator state rooted in the
// store: the durable queue log is replayed, so a restarted coordinator
// finds the previous epoch's unfinished claims already re-queued.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a store")
	}
	q, err := campaign.OpenQueueWithOptions(opts.Store.QueueLogPath(), campaign.QueueOptions{CompactEvery: opts.CompactEvery})
	if err != nil {
		return nil, err
	}
	pol := opts.Policy
	if pol == nil {
		pol = RoundRobin{}
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = 5
	}
	steal := opts.StealAfter
	if steal <= 0 {
		steal = 3
	}
	// A restarted coordinator must not reuse a previous epoch's campaign
	// IDs: a reminted ID would silently re-attach the new submission to
	// the old epoch's journal and queue refs. Every submission opens its
	// journal before enqueueing anything, so the journals on disk are a
	// complete record of the IDs ever minted — re-derive the sequence
	// floor from them.
	seq := 0
	if ids, err := opts.Store.JournaledCampaignIDs(); err == nil {
		for _, id := range ids {
			if n, ok := campaignSeq(id); ok && n > seq {
				seq = n
			}
		}
	}
	return &Coordinator{
		store:          opts.Store,
		queue:          q,
		policy:         pol,
		leaseTTL:       ttl,
		stealAfter:     steal,
		maxOutstanding: opts.MaxOutstanding,
		seq:            seq,
		nodes:          make(map[string]*node),
		campaigns:      make(map[string]*runningCampaign),
	}, nil
}

// Close releases the queue log.
func (co *Coordinator) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	_ = co.queue.Close()
}

// Store returns the coordinator's shared result store.
func (co *Coordinator) Store() *campaign.Store { return co.store }

// QueueReplayStats reports how the coordinator's queue recovered at
// open: whether a snapshot seeded the replay and how much log tail was
// replayed on top of it.
func (co *Coordinator) QueueReplayStats() campaign.ReplayStats { return co.queue.ReplayStats() }

// Policy returns the active routing policy's name.
func (co *Coordinator) Policy() string { return co.policy.Name() }

// Now returns the current logical tick.
func (co *Coordinator) Now() campaign.Tick {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.now
}

// Subscribe registers a listener for campaign id. The channel opens with
// a "snapshot" event carrying the campaign's status and then receives,
// in the order the coordinator applied them, the campaign's events and
// every campaign-less node event. A listener that stalls past the buffer
// loses intermediate events, but never silently: once it drains, the
// next event it receives is a "campaign" status snapshot covering
// everything it missed. The terminal "campaign" event (Status.Done) is
// always delivered, evicting buffered events oldest-first if it must,
// and then the channel closes; a subscriber to a finished campaign gets
// the snapshot and the terminal event on a closed channel. cancel
// unsubscribes and is safe to call after the close.
func (co *Coordinator) Subscribe(id string) (<-chan Event, func(), error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	rc, ok := co.campaigns[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	sub := &subscriber{rc: rc, ch: make(chan Event, subscriberBuffer)}
	st := rc.c.Status()
	sub.ch <- Event{Type: "snapshot", Campaign: id, Tick: co.now, Status: &st}
	if st.Done {
		sub.ch <- co.statusEventLocked(rc)
		close(sub.ch)
		return sub.ch, func() {}, nil
	}
	co.subs = append(co.subs, sub)
	cancel := func() {
		co.mu.Lock()
		defer co.mu.Unlock()
		if i := slices.Index(co.subs, sub); i >= 0 {
			co.subs = slices.Delete(co.subs, i, i+1)
			close(sub.ch)
		}
	}
	return sub.ch, cancel, nil
}

// statusEventLocked is the "campaign" event carrying rc's status: the
// terminal event once the campaign is done, a resync snapshot before.
func (co *Coordinator) statusEventLocked(rc *runningCampaign) Event {
	st := rc.c.Status()
	return Event{Type: "campaign", Campaign: st.ID, Tick: co.now, Status: &st}
}

// Observe attaches a synchronous event callback, invoked in order after
// the emitting operation releases the coordinator lock. The chaos
// harness drives its fault schedule through this hook.
func (co *Coordinator) Observe(fn func(Event)) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.observers = append(co.observers, fn)
}

// unlockEmit publishes events to the subscribers under the lock,
// releases it, and then runs the observers. Every mutation ends here.
func (co *Coordinator) unlockEmit(events []Event) {
	for _, ev := range events {
		co.publishLocked(ev)
	}
	obs := co.observers
	co.mu.Unlock()
	for _, ev := range events {
		for _, fn := range obs {
			fn(ev)
		}
	}
}

// publishLocked hands one event to every subscriber it concerns without
// blocking, in subscription order. A terminal "campaign" event is
// delivered even to a stalled subscriber — buffered events are evicted
// oldest-first until it fits, which cannot race another sender because
// every send happens under co.mu — and closes the subscription.
func (co *Coordinator) publishLocked(ev Event) {
	kept := co.subs[:0]
	for _, sub := range co.subs {
		if ev.Campaign != "" && ev.Campaign != sub.rc.c.ID() {
			kept = append(kept, sub)
			continue
		}
		if ev.Type == "campaign" {
			for !trySend(sub.ch, ev) {
				select {
				case <-sub.ch:
				default:
				}
			}
			close(sub.ch)
			continue
		}
		kept = append(kept, sub)
		if sub.lossy && trySend(sub.ch, co.statusEventLocked(sub.rc)) {
			sub.lossy = false
		}
		if sub.lossy || !trySend(sub.ch, ev) {
			sub.lossy = true
		}
	}
	clear(co.subs[len(kept):])
	co.subs = kept
}

func trySend(ch chan Event, ev Event) bool {
	select {
	case ch <- ev:
		return true
	default:
		return false
	}
}

// Submit expands and registers a manifest, fanning its runs into the
// durable queue. Runs already present in the store complete immediately
// as cache hits; a manifest whose every run is cached finishes without a
// single claim.
func (co *Coordinator) Submit(m campaign.Manifest) (string, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("cluster: submit: %w", err)
	}
	sum := sha256.Sum256(data)
	co.mu.Lock()
	co.seq++
	id := fmt.Sprintf("c%04d-%s", co.seq, hex.EncodeToString(sum[:4]))
	co.mu.Unlock()
	if err := co.submit(id, m); err != nil {
		return "", err
	}
	return id, nil
}

// Resume re-registers a journaled campaign under its original ID: the
// journal's manifest re-expands to the identical spec list, completed
// runs are store hits, and only work the queue does not already hold
// re-enters it. It is the only resume protocol there is.
func (co *Coordinator) Resume(id string) error {
	m, _, err := campaign.ReadJournal(co.store.JournalPath(id))
	if err != nil {
		return err
	}
	return co.submit(id, m)
}

func (co *Coordinator) submit(id string, m campaign.Manifest) error {
	c, err := campaign.NewCampaign(id, m)
	if err != nil {
		return err
	}

	co.mu.Lock()
	if _, dup := co.campaigns[id]; dup {
		co.mu.Unlock()
		return fmt.Errorf("cluster: campaign %s already registered", id)
	}
	rc := &runningCampaign{
		c:      c,
		byRef:  make(map[string][]int),
		groups: make(map[string]string),
	}
	specs := c.Specs()
	keys := c.Keys()

	// Pass 1 — classify every distinct ref without touching the journal
	// or the queue, so admission can reject the whole manifest before any
	// durable side effect.
	var cachedRuns []int             // first run index of each ref served from the store
	var retries []campaign.QueueItem // terminal in the queue but not servable
	var fresh []campaign.QueueItem   // refs the queue has never seen
	for i, spec := range specs {
		ref := id + "/" + keys[i]
		first := len(rc.byRef[ref]) == 0
		rc.byRef[ref] = append(rc.byRef[ref], i)
		if !first {
			continue
		}
		group, err := spec.GroupKey()
		if err != nil {
			co.mu.Unlock()
			return err
		}
		rc.groups[ref] = group
		if res, _ := co.store.Get(keys[i]); res != nil {
			cachedRuns = append(cachedRuns, i)
			continue
		}
		item := campaign.QueueItem{Ref: ref, Key: keys[i], Spec: spec}
		if _, done := co.queue.Done(ref); done {
			// The queue log says this ref already finished, but the store
			// cannot serve it (a failed run, or a done run whose entry was
			// evicted). Enqueue would be a no-op for the known ref, so clear
			// the terminal state and re-issue the work. Without this the
			// ref counts toward remaining but no lease is ever granted, and
			// the resumed campaign hangs forever.
			retries = append(retries, item)
		} else if !co.queue.Known(ref) {
			fresh = append(fresh, item)
		}
		// A known, non-terminal ref (a resumed campaign whose work is
		// still queued or leased) re-attaches without re-enqueueing.
		rc.remaining++
	}

	// Admission backpressure: count only refs this submission would add
	// to the backlog — already-outstanding refs of a resume are in.
	if adding := len(fresh) + len(retries); co.maxOutstanding > 0 && adding > 0 {
		if co.queue.Outstanding()+adding > co.maxOutstanding {
			co.mu.Unlock()
			return fmt.Errorf("%w: %d outstanding + %d submitted > cap %d",
				ErrBacklogFull, co.queue.Outstanding(), adding, co.maxOutstanding)
		}
	}

	// Pass 2 — admitted: write the manifest record (the journal is
	// closed again at once; nothing else is ever appended), mark the cache
	// hits, and fan the remainder into the queue under one batched append.
	// The journal lands before any queue record, so the journals on disk
	// name every campaign ID the queue has seen.
	j, err := co.store.OpenJournal(c)
	if err != nil {
		co.mu.Unlock()
		return err
	}
	j.Close()
	events := []Event{{Type: "submit", Campaign: id, Tick: co.now}}
	for _, i := range cachedRuns {
		res, _ := co.store.Get(keys[i])
		if res == nil {
			// The store entry vanished between passes; fail the submit
			// rather than silently marking a run cached without a result.
			co.mu.Unlock()
			return fmt.Errorf("cluster: submit: result %s disappeared mid-admission", keys[i])
		}
		events = append(events, co.transitionLocked(rc, id+"/"+keys[i], campaign.RunCached, &campaign.RunUpdate{
			FinalAccuracy: res.FinalAccuracy,
			EndS:          float64(res.End),
		})...)
	}
	for _, item := range retries {
		if err := co.queue.Retry(item.Ref, item.Key, item.Spec); err != nil {
			co.mu.Unlock()
			return err
		}
	}
	if err := co.queue.EnqueueBatch(fresh); err != nil {
		co.mu.Unlock()
		return err
	}
	co.campaigns[id] = rc
	co.order = append(co.order, id)
	co.cached += uint64(len(cachedRuns))
	if rc.remaining == 0 {
		events = append(events, co.finishLocked(rc))
	}
	co.unlockEmit(events)
	return nil
}

// finishLocked closes out a campaign whose last ref went terminal and
// returns its terminal "campaign" event.
func (co *Coordinator) finishLocked(rc *runningCampaign) Event {
	rc.c.Finish()
	return co.statusEventLocked(rc)
}

// transitionLocked applies a lifecycle change to every run index ref
// resolves to and returns one "run" event per index.
func (co *Coordinator) transitionLocked(rc *runningCampaign, ref string, state campaign.RunState, upd *campaign.RunUpdate) []Event {
	var events []Event
	for _, i := range rc.byRef[ref] {
		run := rc.c.Transition(i, state, upd)
		events = append(events, Event{Type: "run", Campaign: rc.c.ID(), Ref: ref, Key: run.Key, Tick: co.now, Run: &run})
	}
	return events
}

// RegisterNode adds (or revives) a worker. Capacity is the most runs the
// node holds claims on at once; <= 0 selects 1.
func (co *Coordinator) RegisterNode(name string, capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	co.mu.Lock()
	n, ok := co.nodes[name]
	if !ok {
		n = &node{name: name, groups: make(map[string]bool)}
		co.nodes[name] = n
	}
	n.capacity = capacity
	n.lastSeen = co.now
	n.alive = true
	ev := Event{Type: "node-join", Node: name, Tick: co.now}
	co.unlockEmit([]Event{ev})
}

// Heartbeat refreshes a node's liveness and extends its leases. A node
// that was marked dead revives (its expired claims were already
// re-queued; it simply starts claiming fresh work again).
func (co *Coordinator) Heartbeat(name string) error {
	co.mu.Lock()
	n, ok := co.nodes[name]
	if !ok {
		co.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	n.lastSeen = co.now
	var events []Event
	if !n.alive {
		n.alive = true
		events = append(events, Event{Type: "node-revived", Node: name, Tick: co.now})
	}
	co.queue.Extend(name, co.now, co.leaseTTL)
	co.unlockEmit(events)
	return nil
}

// nodeStatsLocked projects the fleet for the routing policy, sorted by
// name so policies see a deterministic view.
func (co *Coordinator) nodeStatsLocked() []NodeStats {
	names := make([]string, 0, len(co.nodes))
	for name := range co.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := make([]NodeStats, len(names))
	for i, name := range names {
		n := co.nodes[name]
		groups := make([]string, 0, len(n.groups))
		for g := range n.groups {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		stats[i] = NodeStats{
			Name: n.name, Alive: n.alive,
			Inflight: n.inflight, Capacity: n.capacity,
			Granted: n.granted, Executed: n.executed, Cached: n.cached,
			Groups: groups,
		}
	}
	return stats
}

// pendingWindow bounds the queue projection handed to routing policies:
// policies rank claimable work from the front of the queue, and at
// 10^5-deep backlogs a full O(n) snapshot per work request would swamp
// the control plane for no routing benefit.
const pendingWindow = 1024

// pendingRunsLocked projects up to pendingWindow queued runs for the
// routing policy.
func (co *Coordinator) pendingRunsLocked() []PendingRun {
	items := co.queue.PendingFront(pendingWindow)
	out := make([]PendingRun, len(items))
	for i, it := range items {
		out[i] = PendingRun{Ref: it.Ref, Key: it.Key, Group: co.groupOfLocked(it.Ref)}
	}
	return out
}

func (co *Coordinator) groupOfLocked(ref string) string {
	if rc, ok := co.campaigns[campaignOfRef(ref)]; ok {
		return rc.groups[ref]
	}
	return ""
}

func campaignOfRef(ref string) string {
	for i := 0; i < len(ref); i++ {
		if ref[i] == '/' {
			return ref[:i]
		}
	}
	return ref
}

// campaignSeq parses the numeric sequence out of a coordinator-minted
// campaign ID (c%04d-%x). IDs in other formats (a journal dropped into
// the store by hand resumes like any other) report ok=false.
func campaignSeq(id string) (int, bool) {
	dash := strings.IndexByte(id, '-')
	if dash < 2 || id[0] != 'c' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// RequestWork grants up to max assignments to node, routing through the
// policy and falling back to work-stealing when the queue is empty but
// another node sits on stale unstarted claims.
func (co *Coordinator) RequestWork(name string, max int) ([]Assignment, error) {
	if max <= 0 {
		max = 1
	}
	co.mu.Lock()
	n, ok := co.nodes[name]
	if !ok {
		co.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	var out []Assignment
	var events []Event
	// A work request is proof of liveness just like a heartbeat: refresh
	// the node and revive it if a heartbeat gap got it marked dead.
	n.lastSeen = co.now
	if !n.alive {
		n.alive = true
		events = append(events, Event{Type: "node-revived", Node: name, Tick: co.now})
	}
	// Pick phase: the policy ranks a bounded projection of the queue;
	// node stats are updated provisionally between picks so each pick
	// sees the fleet as if the previous grants already landed. All picks
	// then share one batched claim — one journal append and one fsync
	// whether the node asked for one run or five hundred.
	pending := co.pendingRunsLocked()
	var picks []PendingRun
	for len(picks) < max && n.inflight < n.capacity && len(pending) > 0 {
		idx := co.policy.Pick(pending, co.nodeStatsLocked(), name)
		if idx < 0 {
			break
		}
		if idx >= len(pending) {
			idx = len(pending) - 1
		}
		picks = append(picks, pending[idx])
		pending = append(pending[:idx], pending[idx+1:]...)
		n.inflight++
		n.granted++
	}
	if len(picks) > 0 {
		refs := make([]string, len(picks))
		for i, p := range picks {
			refs[i] = p.Ref
		}
		grants, err := co.queue.ClaimBatch(refs, name, co.now, co.leaseTTL)
		if err != nil {
			// Journal append failed: nothing was claimed, roll back the
			// provisional stats.
			n.inflight -= len(picks)
			n.granted -= len(picks)
		} else {
			for _, g := range grants {
				if g.Err != nil {
					n.inflight--
					n.granted--
					continue
				}
				out = append(out, Assignment{
					Campaign: campaignOfRef(g.Lease.Ref), Ref: g.Lease.Ref, Key: g.Lease.Key,
					Lease: g.Lease.ID, Spec: g.Spec,
				})
				events = append(events, Event{Type: "claim", Node: name, Campaign: campaignOfRef(g.Lease.Ref), Ref: g.Lease.Ref, Key: g.Lease.Key, Tick: co.now})
			}
		}
	}
	// Queue drained (or the policy deferred): steal the oldest unstarted
	// claims other nodes have been sitting on.
	for len(out) < max && n.inflight < n.capacity {
		asg, ev, stole := co.stealLocked(n)
		if !stole {
			break
		}
		out = append(out, asg)
		events = append(events, ev)
	}
	co.unlockEmit(events)
	return out, nil
}

// stealLocked transfers the oldest sufficiently stale, unstarted foreign
// lease to thief. Started leases are never stolen — the victim is
// executing, and the no-double-execution property must not depend on
// racing it.
func (co *Coordinator) stealLocked(thief *node) (Assignment, Event, bool) {
	for _, l := range co.queue.Leases() { // grant order: oldest first
		if l.Node == thief.name || l.Started || co.now-l.Granted < co.stealAfter {
			continue
		}
		lease, spec, err := co.queue.Steal(l.Ref, thief.name, co.now, co.leaseTTL)
		if err != nil {
			continue
		}
		if victim, ok := co.nodes[l.Node]; ok && victim.inflight > 0 {
			victim.inflight--
		}
		thief.inflight++
		thief.granted++
		asg := Assignment{
			Campaign: campaignOfRef(lease.Ref), Ref: lease.Ref, Key: lease.Key,
			Lease: lease.ID, Spec: spec,
		}
		ev := Event{Type: "steal", Node: thief.name, Campaign: asg.Campaign, Ref: lease.Ref, Key: lease.Key, Tick: co.now, Detail: "from " + l.Node}
		return asg, ev, true
	}
	return Assignment{}, Event{}, false
}

// StartRuns is the execution gate: a node must pass each claimed lease
// through it before running the spec. The whole batch shares one journal
// append; each lease gets its own error slot, and ErrStaleLease in a
// slot (the claim was stolen or expired — the node drops that assignment
// without executing) never poisons its siblings. Inflight slots are NOT
// released on stale starts: every path that makes a lease stale (steal,
// expiry, completion) already freed the holder's slot exactly once.
func (co *Coordinator) StartRuns(name string, ids []campaign.LeaseID) []error {
	errs := make([]error, len(ids))
	co.mu.Lock()
	gate := make([]campaign.LeaseID, 0, len(ids))
	gateIdx := make([]int, 0, len(ids))
	for i, id := range ids {
		if held, ok := co.queue.LeaseByID(id); ok && held.Node != name {
			errs[i] = fmt.Errorf("%w: lease %d is held by %s, not %s", campaign.ErrStaleLease, id, held.Node, name)
			continue
		}
		gate = append(gate, id)
		gateIdx = append(gateIdx, i)
	}
	var events []Event
	if len(gate) > 0 {
		results, err := co.queue.StartBatch(gate)
		if err != nil {
			for _, i := range gateIdx {
				errs[i] = err
			}
		} else {
			for k, r := range results {
				if r.Err != nil {
					errs[gateIdx[k]] = r.Err
					continue
				}
				lease := r.Lease
				events = append(events, Event{Type: "start", Node: name, Campaign: campaignOfRef(lease.Ref), Ref: lease.Ref, Key: lease.Key, Tick: co.now})
				if rc, ok := co.campaigns[campaignOfRef(lease.Ref)]; ok {
					events = append(events, co.transitionLocked(rc, lease.Ref, campaign.RunRunning, nil)...)
				}
			}
		}
	}
	co.unlockEmit(events)
	return errs
}

// CompletionReport pairs a lease with the outcome its node produced,
// for CompleteRuns.
type CompletionReport struct {
	Lease   campaign.LeaseID
	Outcome Outcome
}

// CompleteRuns records a node's outcomes for started leases it holds,
// all under one journal append. A non-failed outcome whose result is
// missing from the shared store is demoted to failed — durability is
// part of the run contract, exactly as in the library scheduler.
// Each report gets its own error slot: stale completions (the lease
// expired mid-run and the work was re-issued, was never started, or
// belongs to another node) report ErrStaleLease in their slot, change
// nothing, and never poison the batch's valid siblings — the node's
// store Put, if any, is harmless because content addressing makes both
// writers' bytes identical.
func (co *Coordinator) CompleteRuns(name string, reports []CompletionReport) []error {
	errs := make([]error, len(reports))
	co.mu.Lock()
	var events []Event
	comps := make([]campaign.Completion, 0, len(reports))
	compIdx := make([]int, 0, len(reports))
	details := make([]string, 0, len(reports))
	for i, rep := range reports {
		if !rep.Outcome.State.Terminal() {
			errs[i] = fmt.Errorf("cluster: complete with non-terminal state %q", rep.Outcome.State)
			continue
		}
		held, ok := co.queue.LeaseByID(rep.Lease)
		if !ok || held.Node != name {
			events = append(events, Event{Type: "stale-complete", Node: name, Tick: co.now})
			errs[i] = fmt.Errorf("%w: lease %d is not held by %s", campaign.ErrStaleLease, rep.Lease, name)
			continue
		}
		state := rep.Outcome.State
		var detail string
		if state != campaign.RunFailed && !co.store.Has(held.Key) {
			state = campaign.RunFailed
			detail = "completed without a stored result"
		}
		comps = append(comps, campaign.Completion{ID: rep.Lease, State: state})
		compIdx = append(compIdx, i)
		details = append(details, detail)
	}
	if len(comps) > 0 {
		results, err := co.queue.CompleteBatch(comps)
		if err != nil {
			for _, i := range compIdx {
				errs[i] = err
			}
		} else {
			for k, r := range results {
				i := compIdx[k]
				if r.Err != nil {
					// Protocol rejection for a live, owned lease: never
					// started, or completed earlier in this batch.
					events = append(events, Event{Type: "stale-complete", Node: name, Tick: co.now})
					errs[i] = r.Err
					continue
				}
				events = append(events, co.completedLocked(name, r.Lease, comps[k].State, reports[i].Outcome, details[k])...)
			}
		}
	}
	co.unlockEmit(events)
	return errs
}

// completedLocked applies the campaign/node bookkeeping for one
// journaled completion and returns its events.
func (co *Coordinator) completedLocked(name string, lease campaign.Lease, state campaign.RunState, out Outcome, detail string) []Event {
	events := []Event{{Type: "complete", Node: name, Campaign: campaignOfRef(lease.Ref), Ref: lease.Ref, Key: lease.Key, Tick: co.now, Detail: string(state)}}
	if n, ok := co.nodes[name]; ok {
		if n.inflight > 0 {
			n.inflight--
		}
		switch {
		case out.Cached:
			n.cached++
		case state != campaign.RunFailed:
			n.executed++
		}
	}
	switch {
	case state == campaign.RunFailed:
		co.failed++
	case out.Cached:
		co.cached++
	default:
		co.executed++
	}
	if rc, ok := co.campaigns[campaignOfRef(lease.Ref)]; ok {
		upd := &campaign.RunUpdate{
			Attempts:      out.Attempts,
			FinalAccuracy: out.FinalAccuracy,
			EndS:          out.EndS,
			Error:         out.Error,
		}
		if detail != "" {
			upd.Error = detail
		}
		events = append(events, co.transitionLocked(rc, lease.Ref, state, upd)...)
		if n, ok := co.nodes[name]; ok {
			if g, has := rc.groups[lease.Ref]; has && g != "" {
				n.groups[g] = true
			}
		}
		rc.remaining--
		if rc.remaining == 0 {
			events = append(events, co.finishLocked(rc))
		}
	}
	return events
}

// Advance moves the logical clock one tick: leases past their expiry are
// revoked (their runs re-queue at the front), and nodes silent for a
// full lease TTL are marked dead. Production calls this from a
// service-edge timer; the chaos harness calls it once per round.
func (co *Coordinator) Advance() {
	co.mu.Lock()
	co.now++
	var events []Event
	for _, l := range co.queue.ExpireLeases(co.now) {
		events = append(events, Event{Type: "lease-expired", Node: l.Node, Campaign: campaignOfRef(l.Ref), Ref: l.Ref, Key: l.Key, Tick: co.now})
		if n, ok := co.nodes[l.Node]; ok && n.inflight > 0 {
			n.inflight--
		}
		if rc, ok := co.campaigns[campaignOfRef(l.Ref)]; ok {
			events = append(events, co.transitionLocked(rc, l.Ref, campaign.RunQueued, nil)...)
		}
	}
	names := make([]string, 0, len(co.nodes))
	for name := range co.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := co.nodes[name]
		if n.alive && n.lastSeen+co.leaseTTL < co.now {
			n.alive = false
			events = append(events, Event{Type: "node-dead", Node: name, Tick: co.now})
		}
	}
	co.unlockEmit(events)
}

// Nodes returns the fleet's status, sorted by name.
func (co *Coordinator) Nodes() []NodeStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	names := make([]string, 0, len(co.nodes))
	for name := range co.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]NodeStatus, len(names))
	for i, name := range names {
		n := co.nodes[name]
		out[i] = NodeStatus{
			Name: n.name, Alive: n.alive, Capacity: n.capacity,
			Inflight: n.inflight, Granted: n.granted,
			Executed: n.executed, Cached: n.cached, LastSeen: n.lastSeen,
		}
	}
	return out
}

// Stats is the coordinator's accounting, the campaign half of
// cmd/roadrunnerd's /metrics: the queue's present depth and lifetime
// tallies of how refs ended (Cached includes runs a submission found in
// the store).
type Stats struct {
	Pending, Leased          int
	Executed, Cached, Failed uint64
	Campaigns                int
}

// Stats returns a consistent snapshot of the coordinator's accounting.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	pending, leased := co.queue.Depth()
	return Stats{
		Pending: pending, Leased: leased,
		Executed: co.executed, Cached: co.cached, Failed: co.failed,
		Campaigns: len(co.order),
	}
}

// Campaign looks up a registered campaign.
func (co *Coordinator) Campaign(id string) (*campaign.Campaign, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	rc, ok := co.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return rc.c, nil
}

// Campaigns returns every registered campaign's status in submission
// order.
func (co *Coordinator) Campaigns() []campaign.Status {
	co.mu.Lock()
	ids := append([]string(nil), co.order...)
	rcs := make([]*runningCampaign, len(ids))
	for i, id := range ids {
		rcs[i] = co.campaigns[id]
	}
	co.mu.Unlock()
	out := make([]campaign.Status, len(rcs))
	for i, rc := range rcs {
		out[i] = rc.c.Status()
	}
	return out
}

// MergedResult renders the campaign's merged canonical artifact — a pure
// function of the manifest, byte-identical on any fleet.
func (co *Coordinator) MergedResult(id string) ([]byte, error) {
	co.mu.Lock()
	rc, ok := co.campaigns[id]
	co.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return campaign.MergedCanonicalBytes(rc.c.Specs(), co.store)
}
