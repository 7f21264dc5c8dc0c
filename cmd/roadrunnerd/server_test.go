package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// daemon is one run() of roadrunnerd — the real flag set, the real
// listener — stopped the way main stops it: by ending its context.
type daemon struct {
	URL      string // set for coordinator-mode processes
	out      *syncBuffer
	returned chan struct{} // closed when run returned
	err      error         // what it returned
	stop     func()        // ends run and waits for it; idempotent
}

var listeningOn = regexp.MustCompile(`listening on (\S+)`)

// spawn starts run(args) on its own goroutine.
func spawn(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{out: &syncBuffer{}, returned: make(chan struct{})}
	go func() {
		defer close(d.returned)
		d.err = run(ctx, args, d.out)
	}()
	var once sync.Once
	d.stop = func() {
		once.Do(func() {
			cancel()
			if <-d.returned; d.err != nil {
				t.Errorf("run(%v) returned %v", args, d.err)
			}
		})
	}
	t.Cleanup(d.stop)
	return d
}

// startDaemon spawns a coordinator-mode process on a free port and waits
// for its listener.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := spawn(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	waitFor(t, func() bool {
		select {
		case <-d.returned:
			t.Fatalf("run exited before listening: %v\n%s", d.err, d.out.String())
		default:
		}
		m := listeningOn.FindStringSubmatch(d.out.String())
		if m != nil {
			d.URL = "http://" + m[1]
		}
		return m != nil
	})
	return d
}

// newTestServer starts a default-mode daemon — coordinator plus the
// in-process node — on a fresh store.
func newTestServer(t *testing.T) *daemon {
	t.Helper()
	return startDaemon(t, "-store", t.TempDir(), "-workers", "2")
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerHealthz(t *testing.T) {
	ts := newTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	ts := newTestServer(t)
	cases := map[string]string{
		"malformed json":   `{"name": `,
		"unknown field":    `{"name":"x","strategies":[{"kind":"fedavg"}],"seeds":[1],"bogus":true}`,
		"invalid manifest": `{"name":"x","strategies":[{"kind":"warp"}],"seeds":[1]}`,
		"no seeds":         `{"name":"x","strategies":[{"kind":"fedavg"}]}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/cluster/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	var listing struct {
		Campaigns []campaign.Status `json:"campaigns"`
	}
	if code := getJSON(t, ts.URL+"/v1/cluster/campaigns", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(listing.Campaigns) != 0 {
		t.Fatalf("rejected submissions were registered: %+v", listing.Campaigns)
	}
}

func TestServerUnknownResourcesAre404(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{
		"/v1/cluster/campaigns/c9999-missing",
		"/v1/cluster/campaigns/c9999-missing/result",
		"/v1/cluster/campaigns/c9999-missing/events",
		"/v1/runs/" + strings.Repeat("ab", 32),
		"/v1/runs/not-a-key",
		"/v1/campaigns", // the campaign API has one prefix
	} {
		if code, body := fetch(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404: %s", path, code, body)
		}
	}
}

func TestServerMetricsExposition(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"roadrunnerd_queue_depth 0",
		"roadrunnerd_runs_executed_total 0",
		"roadrunnerd_runs_cached_total 0",
		"roadrunnerd_store_corruptions_total 0",
		"# TYPE roadrunnerd_simsec_per_wallsec gauge",
		"# TYPE roadrunner_world_cache_hits_total counter",
		"# TYPE roadrunner_world_cache_misses_total counter",
		"# TYPE roadrunner_world_cache_skipped_oversize_total counter",
		"# TYPE roadrunner_world_cache_retained_bytes gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerCampaignIDsAreUniquePerSubmission(t *testing.T) {
	ts := newTestServer(t)
	const m = `{"name":"dup","env":"tiny","rounds":1,"strategies":[{"kind":"fedavg"}],"seeds":[1]}`
	if a, b := postCampaign(t, ts, m), postCampaign(t, ts, m); a.ID == b.ID {
		t.Fatalf("identical manifests share campaign id %q", a.ID)
	}
}

// fetch returns a GET's status code and body.
func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// fleet reads the daemon's /v1/cluster/nodes.
func fleet(t *testing.T, d *daemon) []cluster.NodeStatus {
	t.Helper()
	var reply struct {
		Nodes []cluster.NodeStatus `json:"nodes"`
	}
	if code := getJSON(t, d.URL+"/v1/cluster/nodes", &reply); code != http.StatusOK {
		t.Fatalf("nodes status %d", code)
	}
	return reply.Nodes
}

// TestClusterFlagStartsNoLocalNode pins what -cluster means: the
// coordinator alone. The benchmark's restart and cluster-fig4 workloads
// exec `roadrunnerd -cluster` and must keep measuring a process in which
// nothing executes.
func TestClusterFlagStartsNoLocalNode(t *testing.T) {
	d := startDaemon(t, "-cluster", "-store", t.TempDir())
	st := postCampaign(t, d, e2eManifest)
	if nodes := fleet(t, d); len(nodes) != 0 {
		t.Fatalf("-cluster daemon registered nodes: %+v", nodes)
	}
	var now campaign.Status
	getJSON(t, d.URL+"/v1/cluster/campaigns/"+st.ID, &now)
	if now.Done || now.Queued != 2 {
		t.Fatalf("-cluster daemon touched the campaign without a worker: %+v", now)
	}
}

// TestDefaultDaemonAlsoAcceptsJoinedWorkers: the worker verbs are always
// mounted, so a default-mode daemon's fleet is its in-process node plus
// whoever joins.
func TestDefaultDaemonAlsoAcceptsJoinedWorkers(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-store", dir, "-workers", "1")
	spawn(t, "-join", d.URL, "-node", "w1", "-store", dir)
	waitFor(t, func() bool { return len(fleet(t, d)) == 2 })
	nodes := fleet(t, d)
	if nodes[0].Name != localNode || nodes[0].Capacity != 1 || nodes[1].Name != "w1" || !nodes[1].Alive {
		t.Fatalf("fleet: %+v", nodes)
	}
	done := pollDone(t, d, postCampaign(t, d, e2eManifest).ID)
	if done.Completed != 2 || done.Failed != 0 {
		t.Fatalf("campaign outcome: %+v", done)
	}
}
