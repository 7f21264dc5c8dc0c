package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/campaign/campaigntest"
)

// newTestServer mounts the coordinator API on an httptest server.
func newTestServer(t *testing.T, co *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	co.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPWorkerProtocol walks a worker through the entire coordinator
// API over real HTTP — register, heartbeat, claim, start, execute,
// complete — and checks the campaign finishes with the merged result
// served byte-identically to the coordinator's in-process view.
// clientStart and clientComplete send a batch of one over HTTP and
// return its slot's error.
func clientStart(c *Client, lease campaign.LeaseID) error {
	errs, err := c.StartBatch([]campaign.LeaseID{lease})
	if err != nil {
		return err
	}
	return errs[0]
}

func clientComplete(c *Client, lease campaign.LeaseID, out Outcome) error {
	errs, err := c.CompleteBatch([]CompletionReport{{Lease: lease, Outcome: out}})
	if err != nil {
		return err
	}
	return errs[0]
}

func TestHTTPWorkerProtocol(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)

	client := NewClient(ts.URL, "w1")
	if err := client.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := client.Heartbeat(); err != nil {
		t.Fatal(err)
	}

	// Submit over HTTP.
	manifest, err := json.Marshal(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cluster/campaigns", "application/json", strings.NewReader(string(manifest)))
	if err != nil {
		t.Fatal(err)
	}
	var submitted campaign.Status
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(workerStore, 1, 2, func(int) {})
	ran := 0
	for {
		asgs, err := client.Claims(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(asgs) == 0 {
			break
		}
		for _, asg := range asgs {
			if err := clientStart(client, asg.Lease); err != nil {
				t.Fatal(err)
			}
			if err := clientComplete(client, asg.Lease, runner.Run(asg)); err != nil {
				t.Fatal(err)
			}
			ran++
		}
	}
	if ran != 2 {
		t.Fatalf("worker ran %d assignments over HTTP, want 2", ran)
	}

	// Status reflects completion.
	var st campaign.Status
	getJSON(t, ts.URL+"/v1/cluster/campaigns/"+submitted.ID, &st)
	if !st.Done || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("campaign status over HTTP: %+v", st)
	}

	// Nodes report the fleet.
	var fleet struct {
		Nodes []NodeStatus `json:"nodes"`
	}
	getJSON(t, ts.URL+"/v1/cluster/nodes", &fleet)
	if len(fleet.Nodes) != 1 || fleet.Nodes[0].Executed != 2 {
		t.Fatalf("fleet over HTTP: %+v", fleet.Nodes)
	}

	// The served merged artifact matches the in-process merge.
	want, err := co.MergedResult(submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := getBytes(t, ts.URL+"/v1/cluster/campaigns/"+submitted.ID+"/result")
	if string(got) != string(want) {
		t.Fatalf("served result differs from in-process merge (%d vs %d bytes)", len(got), len(want))
	}

	// Listing includes the campaign without per-run detail.
	var listing struct {
		Campaigns []campaign.Status `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/v1/cluster/campaigns", &listing)
	if len(listing.Campaigns) != 1 || listing.Campaigns[0].Runs != nil {
		t.Fatalf("listing over HTTP: %+v", listing)
	}
}

// TestHTTPStaleLeaseFlagsItsSlot: a start or complete against a revoked
// lease must surface as campaign.ErrStaleLease on the client side through
// the reply's per-slot stale flag.
func TestHTTPStaleLeaseFlagsItsSlot(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	client := NewClient(ts.URL, "w1")
	if err := client.Register(1); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(tinyClusterManifest()); err != nil {
		t.Fatal(err)
	}
	asgs, err := client.Claims(1)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("claims: %v %v", asgs, err)
	}
	// Expire the claim by advancing past the lease TTL with no heartbeat.
	for i := 0; i < 8; i++ {
		co.Advance()
	}
	if err := clientStart(client, asgs[0].Lease); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("start on expired lease err = %v, want ErrStaleLease", err)
	}
	if err := clientComplete(client, asgs[0].Lease, Outcome{State: campaign.RunDone}); !errors.Is(err, campaign.ErrStaleLease) {
		t.Fatalf("complete on expired lease err = %v, want ErrStaleLease", err)
	}
}

// TestHTTPResultGatedUntilDone: the merged-result endpoint must return
// 409 while the campaign is running, mirroring the single-node endpoint.
// Serving it early would drive the merge's self-heal path to execute
// runs currently leased to workers inside the handler.
func TestHTTPResultGatedUntilDone(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	co.RegisterNode("w1", 2)
	ts := newTestServer(t, co)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-campaign result status %d, want 409", resp.StatusCode)
	}
	workerStore, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, co, NewRunner(workerStore, 1, 2, func(int) {}), "w1")
	if got := getBytes(t, ts.URL+"/v1/cluster/campaigns/"+id+"/result"); len(got) == 0 {
		t.Fatal("finished campaign served an empty merged result")
	}
}

// TestHTTPValidation: malformed or incomplete requests get 4xx, unknown
// campaigns 404. A submitted manifest is decoded strictly, so a field the
// manifest no longer has (eval_workers) is refused by name rather than
// silently dropped.
func TestHTTPValidation(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	ts := newTestServer(t, co)
	for _, tc := range []struct {
		name, path, body string
		want             int
		names            string // the error body must contain it
	}{
		{"bad manifest json", "/v1/cluster/campaigns", "{", http.StatusBadRequest, ""},
		{"empty manifest", "/v1/cluster/campaigns", "{}", http.StatusBadRequest, ""},
		{"manifest with eval_workers", "/v1/cluster/campaigns",
			`{"name":"e","env":"tiny","strategies":[{"kind":"fedavg"}],"seeds":[1],"eval_workers":2}`, http.StatusBadRequest, `"eval_workers"`},
		{"rsu manifest on an env without RSUs", "/v1/cluster/campaigns",
			`{"name":"r","env":"small","strategies":[{"kind":"rsu"}],"seeds":[1]}`, http.StatusBadRequest, ""},
		{"register without node", "/v1/cluster/register", "{}", http.StatusBadRequest, ""},
		{"heartbeat unknown node", "/v1/cluster/heartbeat", `{"node":"ghost"}`, http.StatusNotFound, ""},
		{"claims unknown node", "/v1/cluster/claims", `{"node":"ghost"}`, http.StatusNotFound, ""},
		{"complete without outcome", "/v1/cluster/complete", `{"node":"w1","lease":1}`, http.StatusBadRequest, ""},
		{"complete slot without outcome", "/v1/cluster/complete", `{"node":"w1","completes":[{"lease":1}]}`, http.StatusBadRequest, ""},
		{"single-lease start envelope", "/v1/cluster/starts", `{"node":"w1","lease":1}`, http.StatusBadRequest, ""},
		{"start without leases", "/v1/cluster/starts", `{"node":"w1"}`, http.StatusBadRequest, ""},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Error string }
		decodeErr := json.NewDecoder(resp.Body).Decode(&reply)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if decodeErr != nil || !strings.Contains(reply.Error, tc.names) {
			t.Errorf("%s: error %q (%v) does not name %s", tc.name, reply.Error, decodeErr, tc.names)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/campaigns/c9999-none")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign status: %d, want 404", resp.StatusCode)
	}
}

// postStatus posts body to url and returns the reply's status code.
func postStatus(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

// startedRun submits the tiny manifest, lets node w1 claim and start one
// run and executes it, returning the lease, its outcome and the campaign.
func startedRun(t *testing.T, co *Coordinator, dir string) (campaign.LeaseID, Outcome, string) {
	t.Helper()
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
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return asgs[0].Lease, NewRunner(store, 1, 2, func(int) {}).Run(asgs[0]), id
}

// completed returns how many of campaign id's runs have completed.
func completed(t *testing.T, co *Coordinator, id string) int {
	t.Helper()
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	return c.Status().Completed
}

// TestHTTPOversizedBodiesChangeNothing: a submit and a complete whose
// bodies exceed maxBodyBytes get a 4xx and leave the queue as it was.
// Each body is a valid request padded with whitespace, and the complete
// is accepted once unpadded, so the size alone is what is refused.
func TestHTTPOversizedBodiesChangeNothing(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	pad := func(body []byte) []byte {
		return append(append([]byte("{"), strings.Repeat(" ", maxBodyBytes)...), body[1:]...)
	}

	manifest, err := json.Marshal(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	if code := postStatus(t, ts.URL+"/v1/cluster/campaigns", pad(manifest)); code/100 != 4 {
		t.Fatalf("oversized submit: status %d, want 4xx", code)
	}
	if n := len(co.Campaigns()); n != 0 {
		t.Fatalf("oversized submit registered %d campaign(s)", n)
	}
	if p, l := co.queue.Depth(); p != 0 || l != 0 {
		t.Fatalf("oversized submit enqueued: pending=%d leased=%d", p, l)
	}

	lease, out, id := startedRun(t, co, dir)
	complete, err := json.Marshal(leaseRequest{Node: "w1", Completes: []completionWire{{Lease: lease, Outcome: &out}}})
	if err != nil {
		t.Fatal(err)
	}
	if code := postStatus(t, ts.URL+"/v1/cluster/complete", pad(complete)); code/100 != 4 {
		t.Fatalf("oversized complete: status %d, want 4xx", code)
	}
	if held, ok := co.queue.LeaseByID(lease); !ok || !held.Started || completed(t, co, id) != 0 {
		t.Fatalf("oversized complete changed the lease (%+v, %v) or completed a run", held, ok)
	}
	if code := postStatus(t, ts.URL+"/v1/cluster/complete", complete); code != http.StatusOK || completed(t, co, id) != 1 {
		t.Fatalf("the same complete unpadded: status %d, %d run(s) completed", code, completed(t, co, id))
	}
}

// TestHTTPCompleteBatchNamingALeaseTwice: the first slot completes the
// lease, the second finds it completed earlier in the batch and is
// flagged stale on its own.
func TestHTTPCompleteBatchNamingALeaseTwice(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	lease, out, id := startedRun(t, co, dir)

	errs, err := NewClient(ts.URL, "w1").CompleteBatch([]CompletionReport{{Lease: lease, Outcome: out}, {Lease: lease, Outcome: out}})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || !errors.Is(errs[1], campaign.ErrStaleLease) {
		t.Fatalf("slots = %v, want the first completed and the second stale", errs)
	}
	if n := completed(t, co, id); n != 1 {
		t.Fatalf("%d run(s) completed, want 1", n)
	}
	if nodes := co.Nodes(); nodes[0].Executed != 1 {
		t.Fatalf("node executed %d run(s), want 1", nodes[0].Executed)
	}
}

// TestHTTPUnregisteredNodeCompletesNothing: starts and completes from a
// node name that never registered — naming a live lease another node
// holds, or no lease at all — are stale in every slot and change nothing.
func TestHTTPUnregisteredNodeCompletesNothing(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	lease, out, id := startedRun(t, co, dir)
	ghost := NewClient(ts.URL, "ghost")
	ids := []campaign.LeaseID{lease, lease + 100}

	starts, err := ghost.StartBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	completes, err := ghost.CompleteBatch([]CompletionReport{{Lease: ids[0], Outcome: out}, {Lease: ids[1], Outcome: out}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !errors.Is(starts[i], campaign.ErrStaleLease) || !errors.Is(completes[i], campaign.ErrStaleLease) {
			t.Fatalf("lease %d: start %v, complete %v, want both stale", ids[i], starts[i], completes[i])
		}
	}
	if held, ok := co.queue.LeaseByID(lease); !ok || held.Node != "w1" || completed(t, co, id) != 0 {
		t.Fatalf("ghost changed the lease (%+v, %v) or completed a run", held, ok)
	}
	if nodes := co.Nodes(); len(nodes) != 1 || nodes[0].Name != "w1" {
		t.Fatalf("fleet after ghost verbs: %+v", nodes)
	}
}

// TestHTTPSlowLorisBodyIsCutOff: a client that sends a complete's
// headers and then stalls inside its body gets a 4xx or a closed
// connection once the body read deadline passes, and the queue does not
// change.
func TestHTTPSlowLorisBodyIsCutOff(t *testing.T) {
	// Restored after the server closes: cleanups run last-in, first-out.
	restore := bodyReadTimeout
	t.Cleanup(func() { bodyReadTimeout = restore })
	bodyReadTimeout = 200 * time.Millisecond
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	lease, _, id := startedRun(t, co, dir)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	body := fmt.Sprintf(`{"node":"w1","completes":[{"lease":%d,`, lease)
	req := "POST /v1/cluster/complete HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n" +
		"Content-Length: 4096\r\n\r\n" + body
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// The client stalls here for good; only the server can end the wait.
	if err := conn.SetReadDeadline(time.Now().Add(10 * bodyReadTimeout)); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	t.Logf("server answered %q (err %v)", reply, err)
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("no reply within %v of a stalled body", 10*bodyReadTimeout)
	case err == nil && !strings.HasPrefix(reply, "HTTP/1.1 4"):
		t.Fatalf("stalled body answered %q, want a 4xx", reply)
	}
	if held, ok := co.queue.LeaseByID(lease); !ok || !held.Started || completed(t, co, id) != 0 {
		t.Fatalf("stalled complete changed the lease (%+v, %v) or completed a run", held, ok)
	}
}

// TestHTTPReorderedCompletionBatches: one node claims and starts two
// batches, then reports the second batch before the first. Every slot is
// accepted once, the coordinator's tallies are exact, and the merged
// bytes equal the library reference.
func TestHTTPReorderedCompletionBatches(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	client := NewClient(ts.URL, "w1")
	if err := client.Register(4); err != nil {
		t.Fatal(err)
	}
	m := tinyClusterManifest()
	m.Seeds = []uint64{1, 2}
	id, err := co.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(co.Store(), 1, 2, func(int) {})

	var batches [2][]CompletionReport
	for b := range batches {
		asgs, err := client.Claims(2)
		if err != nil || len(asgs) != 2 {
			t.Fatalf("batch %d claim: %v %v", b+1, asgs, err)
		}
		leases := []campaign.LeaseID{asgs[0].Lease, asgs[1].Lease}
		errs, err := client.StartBatch(leases)
		if err != nil || errs[0] != nil || errs[1] != nil {
			t.Fatalf("batch %d start: %v %v", b+1, errs, err)
		}
		for _, asg := range asgs {
			batches[b] = append(batches[b], CompletionReport{Lease: asg.Lease, Outcome: runner.Run(asg)})
		}
	}
	for _, b := range []int{1, 0} {
		errs, err := client.CompleteBatch(batches[b])
		if err != nil || errs[0] != nil || errs[1] != nil {
			t.Fatalf("batch %d complete: %v %v", b+1, errs, err)
		}
	}
	// Reporting either batch again is stale in every slot.
	for b := range batches {
		errs, err := client.CompleteBatch(batches[b])
		if err != nil || !errors.Is(errs[0], campaign.ErrStaleLease) || !errors.Is(errs[1], campaign.ErrStaleLease) {
			t.Fatalf("batch %d completed twice: %v %v", b+1, errs, err)
		}
	}
	if st := co.Stats(); st != (Stats{Executed: 4, Campaigns: 1}) {
		t.Fatalf("stats after reordered batches: %+v", st)
	}
	if nodes := co.Nodes(); nodes[0].Executed != 4 || nodes[0].Inflight != 0 {
		t.Fatalf("node after reordered batches: %+v", nodes[0])
	}
	got := getBytes(t, ts.URL+"/v1/cluster/campaigns/"+id+"/result")
	if want := campaigntest.LibraryReference(t, m); !bytes.Equal(got, want) {
		t.Fatal("merged bytes after reordered batches differ from the library reference")
	}
}

// TestHTTPEventsStreamDeliversTerminal subscribes to the merged SSE
// stream for a campaign that finishes warm from cache: the snapshot and
// terminal campaign event must arrive and the stream must close.
func TestHTTPEventsStreamDeliversTerminal(t *testing.T) {
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

	// Warm resubmission finishes during Submit, so the stream sees the
	// snapshot (already done) and then closes on the terminal event.
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, co)
	resp, err := http.Get(ts.URL + "/v1/cluster/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	var body strings.Builder
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break // stream closed after the terminal event
		}
	}
	if !strings.Contains(body.String(), `"type":"snapshot"`) {
		t.Fatalf("stream missing snapshot: %q", body.String())
	}
}

// TestEventStreamOrderedAndComplete drives 20 campaigns while an SSE
// client follows each one, and checks every stream whole: it opens with
// the snapshot, ends with the terminal campaign event and nothing after
// it, holds one complete per run, and orders each run's protocol steps
// as the coordinator applied them — claim, start, run(running),
// complete, run(terminal).
func TestEventStreamOrderedAndComplete(t *testing.T) {
	dir := t.TempDir()
	co := newTestCoordinator(t, dir)
	ts := newTestServer(t, co)
	co.RegisterNode("w1", 2)
	runner := NewRunner(co.Store(), 1, 2, func(int) {})
	for round := 0; round < 20; round++ {
		m := tinyClusterManifest()
		m.Seeds = []uint64{uint64(100 + round)} // fresh runs: no cache hits
		id, err := co.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/cluster/campaigns/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		var evs []Event
		next := func() bool {
			for sc.Scan() {
				if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
					var ev Event
					if err := json.Unmarshal([]byte(data), &ev); err != nil {
						t.Fatalf("bad SSE payload %q: %v", data, err)
					}
					evs = append(evs, ev)
					return true
				}
			}
			return false
		}
		// The snapshot arrives only once the subscription is live, so no
		// run can move before the stream follows the campaign.
		if !next() || evs[0].Type != "snapshot" || evs[0].Status == nil {
			t.Fatalf("campaign %s: stream does not open with a snapshot: %+v", id, evs)
		}
		drive(t, co, runner, "w1")
		for next() {
		}
		_ = resp.Body.Close()

		last := evs[len(evs)-1]
		if last.Type != "campaign" || last.Status == nil || !last.Status.Done {
			t.Fatalf("campaign %s: stream ends with %+v, want the terminal campaign event\n%+v", id, last, evs)
		}
		pos := make(map[string]map[string]int) // key -> step -> index
		for i, ev := range evs {
			if ev.Type == "campaign" && i != len(evs)-1 {
				t.Fatalf("campaign %s: campaign event at %d of %d", id, i, len(evs))
			}
			key, step := ev.Key, ev.Type
			if ev.Run != nil {
				step = "run(" + string(ev.Run.State) + ")"
				if ev.Run.State.Terminal() {
					step = "run(terminal)"
				}
			}
			if key == "" {
				continue
			}
			if pos[key] == nil {
				pos[key] = make(map[string]int)
			}
			if _, dup := pos[key][step]; dup {
				t.Fatalf("campaign %s: run %.8s has two %s events", id, key, step)
			}
			pos[key][step] = i
		}
		for _, run := range evs[0].Status.Runs {
			prev := -1
			for _, step := range []string{"claim", "start", "run(running)", "complete", "run(terminal)"} {
				i, ok := pos[run.Key][step]
				if !ok || i <= prev {
					t.Fatalf("campaign %s: run %.8s: %s missing or out of order (%v)", id, run.Key, step, pos[run.Key])
				}
				prev = i
			}
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return []byte(sb.String())
		}
	}
}
