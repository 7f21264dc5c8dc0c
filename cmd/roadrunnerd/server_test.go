package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadrunner/internal/campaign"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := campaign.NewScheduler(campaign.Options{
		Workers: 2,
		Store:   store,
		Backoff: func(int) {},
	})
	srv := newServer(sched)
	ts := httptest.NewServer(srv.routes(false))
	t.Cleanup(ts.Close)
	return srv, ts
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
	_, ts := newTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"malformed json":   `{"name": `,
		"unknown field":    `{"name":"x","strategies":[{"kind":"fedavg"}],"seeds":[1],"bogus":true}`,
		"invalid manifest": `{"name":"x","strategies":[{"kind":"warp"}],"seeds":[1]}`,
		"no seeds":         `{"name":"x","strategies":[{"kind":"fedavg"}]}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
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
	if code := getJSON(t, ts.URL+"/v1/campaigns", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(listing.Campaigns) != 0 {
		t.Fatalf("rejected submissions were registered: %+v", listing.Campaigns)
	}
}

func TestServerUnknownResourcesAre404(t *testing.T) {
	_, ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/v1/campaigns/c9999-missing", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign status %d", code)
	}
	key := strings.Repeat("ab", 32)
	if code := getJSON(t, ts.URL+"/v1/runs/"+key, nil); code != http.StatusNotFound {
		t.Fatalf("unknown run status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/not-a-key", nil); code != http.StatusNotFound {
		t.Fatalf("malformed run key status %d", code)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
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
	srv, _ := newTestServer(t)
	m := campaign.Manifest{
		Name:       "dup",
		Env:        campaign.EnvTiny,
		Rounds:     1,
		Strategies: []campaign.StrategySpec{{Kind: "fedavg"}},
		Seeds:      []uint64{1},
	}
	a, err := srv.register(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.register(m)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == b.ID() {
		t.Fatalf("identical manifests share campaign id %q", a.ID())
	}
}
