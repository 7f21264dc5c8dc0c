package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadrunner/internal/campaign"
)

// fakeLink is a scripted coordinator: it hands out the batches pushed
// onto it, flags the leases in stale at the StartBatch gate, and records
// what the worker reports.
type fakeLink struct {
	mu        sync.Mutex
	batches   [][]Assignment
	stale     map[campaign.LeaseID]bool
	claimed   chan int // per Claims call: how many it granted
	completed chan []CompletionReport
}

func newFakeLink() *fakeLink {
	return &fakeLink{
		stale:     make(map[campaign.LeaseID]bool),
		claimed:   make(chan int, 64),
		completed: make(chan []CompletionReport, 64),
	}
}

func (f *fakeLink) push(batch []Assignment) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, batch)
}

func (f *fakeLink) Register(int) error { return nil }
func (f *fakeLink) Heartbeat() error   { return nil }
func (f *fakeLink) Claims(int) ([]Assignment, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var batch []Assignment
	if len(f.batches) > 0 {
		batch, f.batches = f.batches[0], f.batches[1:]
	}
	select {
	case f.claimed <- len(batch):
	default: // nobody is counting any more
	}
	return batch, nil
}
func (f *fakeLink) StartBatch(leases []campaign.LeaseID) ([]error, error) {
	errs := make([]error, len(leases))
	for i, id := range leases {
		if f.stale[id] {
			errs[i] = fmt.Errorf("%w: lease %d", campaign.ErrStaleLease, id)
		}
	}
	return errs, nil
}
func (f *fakeLink) CompleteBatch(reports []CompletionReport) ([]error, error) {
	f.completed <- reports
	return make([]error, len(reports)), nil
}

// fakeBatch turns the tiny manifest's two specs into assignments with
// leases 1 and 2.
func fakeBatch(t *testing.T) []Assignment {
	t.Helper()
	c, err := campaign.NewCampaign("fake", tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	keys := c.Keys()
	asgs := make([]Assignment, len(keys))
	for i, spec := range c.Specs() {
		asgs[i] = Assignment{Campaign: "fake", Ref: "fake/" + keys[i], Key: keys[i], Lease: campaign.LeaseID(i + 1), Spec: spec}
	}
	return asgs
}

// startWorker runs w until the test ends.
func startWorker(t *testing.T, w *Worker) {
	t.Helper()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { done <- w.Run(stop) }()
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("worker returned %v", err)
		}
	})
}

func receive[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second): //roadlint:allow wallclock test harness timeout
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestWorkerDropsStaleStartSlot: a lease the StartBatch gate flags stale
// (stolen or expired before the node began) is dropped unexecuted and
// unreported; its sibling in the same batch runs and is reported.
func TestWorkerDropsStaleStartSlot(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	link := newFakeLink()
	batch := fakeBatch(t)
	link.stale[batch[0].Lease] = true
	link.push(batch)
	runner := NewRunner(store, 1, 2, func(int) {})
	startWorker(t, &Worker{Link: link, Node: "w", Capacity: 2, Runner: runner})

	reports := receive(t, link.completed, "the completion report")
	if len(reports) != 1 || reports[0].Lease != batch[1].Lease || reports[0].Outcome.State != campaign.RunDone {
		t.Fatalf("reports: %+v, want only lease %d done", reports, batch[1].Lease)
	}
	if store.Has(batch[0].Key) || !store.Has(batch[1].Key) {
		t.Fatal("the stale slot must not execute and its sibling must")
	}
	if st := runner.Stats(); st.Executed != 1 {
		t.Fatalf("runner executed %d runs, want 1", st.Executed)
	}
}

// TestWorkerWakeClaimsWithoutTheIdleTimer: with the idle poll an hour
// away, work that arrives after an empty claim is only ever claimed
// because Wake fired — the path that lets a daemon's in-process node
// start a submitted campaign without waiting for a timer.
func TestWorkerWakeClaimsWithoutTheIdleTimer(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	link := newFakeLink()
	wake := make(chan struct{}, 1)
	startWorker(t, &Worker{
		Link: link, Node: "w", Capacity: 2, Runner: NewRunner(store, 2, 2, func(int) {}),
		Wake: wake, idlePoll: time.Hour,
	})
	if n := receive(t, link.claimed, "the first claim"); n != 0 {
		t.Fatalf("first claim granted %d", n)
	}
	link.push(fakeBatch(t))
	wake <- struct{}{}
	if reports := receive(t, link.completed, "the woken batch"); len(reports) != 2 {
		t.Fatalf("reports: %+v", reports)
	}
}

// TestWorkerRejoinsRestartedCoordinator: a coordinator that restarts has
// an empty fleet view and answers a known worker's claims 404. The worker
// must take that as "join again", not as "no work": it re-registers and
// finishes the campaign the new coordinator resumed. Before the fix it
// polled the 404 forever and the fleet stayed empty.
func TestWorkerRejoinsRestartedCoordinator(t *testing.T) {
	dir := t.TempDir()
	var current atomic.Pointer[http.ServeMux]
	serve := func(co *Coordinator) {
		mux := http.NewServeMux()
		co.Routes(mux)
		current.Store(mux)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	co := newTestCoordinator(t, dir)
	serve(co)
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, &Worker{
		Link: NewClient(ts.URL, "w1"), Node: "w1", Capacity: 1,
		Runner: NewRunner(workerStore, 1, 2, func(int) {}), idlePoll: 5 * time.Millisecond,
	})
	for len(co.Nodes()) == 0 {
		time.Sleep(time.Millisecond) //roadlint:allow wallclock test harness polling
	}

	// The coordinator dies with a campaign submitted and restarts on the
	// same store; the worker lives through it.
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
	co2 := newTestCoordinator(t, dir)
	if err := co2.Resume(id); err != nil {
		t.Fatal(err)
	}
	serve(co2)

	c, err := co2.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	receive(t, c.Done(), "the resumed campaign to finish on the re-joined worker")
	if st := c.Status(); st.Failed != 0 || st.Completed+st.Cached != 2 {
		t.Fatalf("campaign status: %+v", st)
	}
	nodes := co2.Nodes()
	if len(nodes) != 1 || nodes[0].Name != "w1" || nodes[0].Executed+nodes[0].Cached != 2 {
		t.Fatalf("restarted coordinator's fleet: %+v", nodes)
	}
}
