package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/campaign/campaigntest"
	"roadrunner/internal/cluster"
)

// e2eManifest is the laptop-scale two-run campaign the smoke test submits.
const e2eManifest = `{
  "name": "e2e-smoke",
  "env": "tiny",
  "rounds": 2,
  "strategies": [{"kind": "fedavg"}, {"kind": "opp"}],
  "seeds": [1]
}`

func postCampaign(t *testing.T, ts *daemon, manifest string) campaign.Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/cluster/campaigns", "application/json", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st campaign.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls the status endpoint until the campaign reports done.
func pollDone(t *testing.T, ts *daemon, id string) campaign.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st campaign.Status
		if code := getJSON(t, ts.URL+"/v1/cluster/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("status poll for %s returned %d", id, code)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricValue extracts one gauge/counter from Prometheus exposition text.
func metricValue(t *testing.T, ts *daemon, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: unparseable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func fetchRunBytes(t *testing.T, ts *daemon, key string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run fetch %s: status %d", key, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEndToEndColdThenWarm is the acceptance-criteria test: submit a
// two-run campaign over HTTP, wait for completion, then resubmit the
// identical manifest and assert the warm pass is 100% cache hits, executes
// zero simulation ticks, and serves byte-identical results.
func TestEndToEndColdThenWarm(t *testing.T) {
	ts := newTestServer(t)
	worldBuilds := func() float64 {
		return metricValue(t, ts, "roadrunner_world_cache_hits_total") + metricValue(t, ts, "roadrunner_world_cache_misses_total")
	}
	worldsBefore := worldBuilds()

	// Cold pass: everything executes.
	cold := postCampaign(t, ts, e2eManifest)
	if cold.Total != 2 {
		t.Fatalf("cold campaign expanded %d runs, want 2", cold.Total)
	}
	coldDone := pollDone(t, ts, cold.ID)
	if coldDone.Completed != 2 || coldDone.Cached != 0 || coldDone.Failed != 0 {
		t.Fatalf("cold campaign outcome: %+v", coldDone)
	}
	if got := metricValue(t, ts, "roadrunnerd_runs_executed_total"); got != 2 {
		t.Fatalf("cold executed_total = %v, want 2", got)
	}
	simEventsCold := metricValue(t, ts, "roadrunnerd_sim_events_total")
	if simEventsCold <= 0 {
		t.Fatalf("cold pass executed no simulation events")
	}
	// Every execution either built its world or attached to the retained one.
	if got := worldBuilds() - worldsBefore; got != 2 {
		t.Fatalf("world cache hits+misses rose by %v over 2 executions", got)
	}

	// Served bytes must equal a fresh in-process execution of each spec.
	var m campaign.Manifest
	if err := json.Unmarshal([]byte(e2eManifest), &m); err != nil {
		t.Fatal(err)
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	coldBytes := make(map[string][]byte)
	for i, run := range coldDone.Runs {
		served := fetchRunBytes(t, ts, run.Key)
		coldBytes[run.Key] = served
		res, err := specs[i].Execute()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, fresh) {
			t.Fatalf("run %s: served bytes differ from a fresh execution", run.Name)
		}
	}

	// Warm pass: identical manifest, new campaign, all cache hits.
	warm := postCampaign(t, ts, e2eManifest)
	if warm.ID == cold.ID {
		t.Fatal("resubmission reused the cold campaign id")
	}
	warmDone := pollDone(t, ts, warm.ID)
	if warmDone.Cached != 2 || warmDone.Completed != 0 || warmDone.Failed != 0 {
		t.Fatalf("warm campaign outcome: %+v (want 100%% cache hits)", warmDone)
	}
	if got := metricValue(t, ts, "roadrunnerd_runs_executed_total"); got != 2 {
		t.Fatalf("warm pass executed fresh runs: executed_total = %v", got)
	}
	if got := metricValue(t, ts, "roadrunnerd_sim_events_total"); got != simEventsCold {
		t.Fatalf("warm pass executed simulation ticks: events %v -> %v", simEventsCold, got)
	}
	if got := metricValue(t, ts, "roadrunnerd_runs_cached_total"); got != 2 {
		t.Fatalf("warm cached_total = %v, want 2", got)
	}
	for _, run := range warmDone.Runs {
		if run.State != campaign.RunCached {
			t.Fatalf("warm run %s state %q, want cached", run.Name, run.State)
		}
		if served := fetchRunBytes(t, ts, run.Key); !bytes.Equal(served, coldBytes[run.Key]) {
			t.Fatalf("run %s: warm bytes differ from cold bytes", run.Name)
		}
	}

	// Meta view serves the sidecar.
	var meta campaign.RunMeta
	if code := getJSON(t, ts.URL+"/v1/runs/"+warmDone.Runs[0].Key+"?view=meta", &meta); code != http.StatusOK {
		t.Fatalf("meta view status %d", code)
	}
	if meta.Key != warmDone.Runs[0].Key || meta.SHA256 == "" {
		t.Fatalf("meta view: %+v", meta)
	}
}

// TestEndToEndTraceEndpoint exercises the trace observability surface: a
// completed run's trace is generated by a traced re-execution, cached as a
// store sidecar (second fetch serves identical bytes), exported in both
// formats, and accounted per campaign on /metrics. Generating a trace must
// not disturb the stored canonical result.
func TestEndToEndTraceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	st := postCampaign(t, ts, e2eManifest)
	done := pollDone(t, ts, st.ID)
	key := done.Runs[0].Key
	resultBefore := fetchRunBytes(t, ts, key)

	fetchTrace := func(query string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/runs/" + key + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != wantStatus {
			t.Fatalf("trace fetch %q: status %d, want %d", query, resp.StatusCode, wantStatus)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	jsonTrace := fetchTrace("", http.StatusOK)
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(jsonTrace, &chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	csvTrace := fetchTrace("?format=csv", http.StatusOK)
	if !strings.HasPrefix(string(csvTrace), "# roadrunner-trace-v1") {
		t.Fatalf("canonical trace header missing: %.60s", csvTrace)
	}

	// The second fetch must be a sidecar cache hit with identical bytes —
	// and only the first generation counts on /metrics.
	if again := fetchTrace("", http.StatusOK); !bytes.Equal(again, jsonTrace) {
		t.Fatal("cached trace bytes differ from the generated ones")
	}
	if got := metricValue(t, ts, "roadrunnerd_traces_generated_total"); got != 1 {
		t.Fatalf("traces_generated_total = %v, want 1", got)
	}
	spansMetric := fmt.Sprintf("roadrunnerd_trace_spans_total{campaign=%q}", st.ID)
	if got := metricValue(t, ts, spansMetric); got <= 0 {
		t.Fatalf("%s = %v, want > 0", spansMetric, got)
	}

	// The traced re-run must not have perturbed the stored result.
	if after := fetchRunBytes(t, ts, key); !bytes.Equal(after, resultBefore) {
		t.Fatal("generating a trace changed the stored canonical result")
	}

	fetchTrace("?format=xml", http.StatusBadRequest)
	resp, err := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("ab", 32) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run trace status %d, want 404", resp.StatusCode)
	}
}

// TestEndToEndEventStream verifies the SSE endpoint delivers a terminal
// campaign snapshot (late subscription to a finished campaign is the
// deterministic case).
func TestEndToEndEventStream(t *testing.T) {
	ts := newTestServer(t)
	st := postCampaign(t, ts, e2eManifest)
	pollDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/cluster/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawTerminal bool
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev cluster.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", data, err)
		}
		if ev.Type == "campaign" && ev.Status != nil && ev.Status.Done {
			sawTerminal = true
			break
		}
	}
	if !sawTerminal {
		t.Fatal("event stream ended without a terminal campaign snapshot")
	}
}

// TestEndToEndResumeFlag exercises the daemon's -resume path: a campaign
// journaled by one process is picked up and finished by the next.
func TestEndToEndResumeFlag(t *testing.T) {
	dir := t.TempDir()
	first := startDaemon(t, "-store", dir, "-workers", "1")
	st := postCampaign(t, first, e2eManifest)
	pollDone(t, first, st.ID)
	first.stop()

	second := startDaemon(t, "-store", dir, "-workers", "1", "-resume")
	if !strings.Contains(second.out.String(), "resumed 1 journaled campaign(s)") {
		t.Fatalf("restart log: %q", second.out.String())
	}
	final := pollDone(t, second, st.ID)
	if final.Cached != 2 || final.Failed != 0 {
		t.Fatalf("resumed campaign outcome: %+v (want all cache hits)", final)
	}
	if got := metricValue(t, second, "roadrunnerd_runs_executed_total"); got != 0 {
		t.Fatalf("resume of a finished campaign executed %v fresh runs", got)
	}
	if !strings.HasPrefix(st.ID, fmt.Sprintf("c%04d-", 1)) {
		t.Fatalf("unexpected campaign id shape %q", st.ID)
	}
}

// TestClusterResumeReRegistersWithCoordinator: -resume hands every
// readable journal to the coordinator — there is no second path to
// route to, so nothing is guessed from the shape of an id. A campaign
// the coordinator minted, interrupted with its runs still queued, and a
// journal with a foreign id ("local-7") both come back under both
// prefixes and execute nowhere until a node claims them; an unreadable
// journal is reported, not swallowed.
func TestClusterResumeReRegistersWithCoordinator(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var m campaign.Manifest
	if err := json.Unmarshal([]byte(e2eManifest), &m); err != nil {
		t.Fatal(err)
	}
	id, err := co.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	co.Close() // no worker ever joined: both runs are still queued

	// A journal nobody minted and a corrupt one share the directory.
	local := m
	local.Seeds = []uint64{7}
	foreign, err := campaign.NewCampaign("local-7", local)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.WriteFile(store.JournalPath("c0009-bad"), []byte("not json\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-cluster", "-resume", "-store", dir)
	log := d.out.String()
	if !strings.Contains(log, "resumed 2 journaled campaign(s)") {
		t.Fatalf("want the minted and the foreign journal resumed: %q", log)
	}
	if !strings.Contains(log, "c0009-bad not resumed") || !strings.Contains(log, "corrupt record") {
		t.Fatalf("unreadable journal skipped without its reason: %q", log)
	}
	for _, cid := range []string{id, "local-7"} {
		var st campaign.Status
		if code := getJSON(t, d.URL+"/v1/cluster/campaigns/"+cid, &st); code != http.StatusOK || st.ID != cid || st.Done || st.Total != 2 || st.Queued != 2 {
			t.Fatalf("resumed campaign %s: status %d, %+v", cid, code, st)
		}
	}
	// Nothing executed: both campaigns wait in the queue for a node.
	for _, key := range append(foreign.Keys(), campaignKeys(t, m)...) {
		if store.Has(key) {
			t.Fatalf("run %s was executed without a node", key[:8])
		}
	}
	spawn(t, "-join", d.URL, "-node", "w1", "-store", dir)
	for _, cid := range []string{id, "local-7"} {
		if st := pollDone(t, d, cid); st.Completed != 2 || st.Failed != 0 {
			t.Fatalf("resumed campaign %s after a worker joined: %+v", cid, st)
		}
	}
}

func campaignKeys(t *testing.T, m campaign.Manifest) []string {
	t.Helper()
	c, err := campaign.NewCampaign("keys", m)
	if err != nil {
		t.Fatal(err)
	}
	return c.Keys()
}

func mergedResult(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	code, body := fetch(t, d.URL+"/v1/cluster/campaigns/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result of %s: status %d: %s", id, code, body)
	}
	return []byte(body)
}

// TestOneManifestThreeWaysOneArtifact runs the same manifest on the
// library pool, on a default-mode daemon (in-process node only) and on a
// -cluster daemon with two joined workers: one merged artifact.
func TestOneManifestThreeWaysOneArtifact(t *testing.T) {
	const manifest = `{"name":"three-ways","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[1,2,3]}`
	var m campaign.Manifest
	if err := json.Unmarshal([]byte(manifest), &m); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(campaigntest.LibraryReference(t, m))

	single := newTestServer(t)
	st := pollDone(t, single, postCampaign(t, single, manifest).ID)
	if st.Completed != 6 || sha256.Sum256(mergedResult(t, single, st.ID)) != want {
		t.Fatalf("default-mode daemon: %+v, merged artifact differs from the library reference", st)
	}

	dir := t.TempDir()
	co := startDaemon(t, "-cluster", "-store", dir)
	spawn(t, "-join", co.URL, "-node", "w1", "-capacity", "2", "-store", dir)
	spawn(t, "-join", co.URL, "-node", "w2", "-capacity", "2", "-store", dir)
	st = pollDone(t, co, postCampaign(t, co, manifest).ID)
	if st.Completed != 6 || sha256.Sum256(mergedResult(t, co, st.ID)) != want {
		t.Fatalf("-cluster daemon + 2 workers: %+v, merged artifact differs from the library reference", st)
	}
	for _, n := range fleet(t, co) {
		if n.Name == localNode {
			t.Fatalf("-cluster daemon ran an in-process node: %+v", n)
		}
	}
}

// TestShutdownStopsAfterTheBatchInFlight: ending the daemon mid-campaign
// returns once the in-process node has reported the batch it was running
// — it does not wait for the campaign — and a restart with -resume
// finishes the campaign to the same bytes as an uninterrupted run.
func TestShutdownStopsAfterTheBatchInFlight(t *testing.T) {
	seeds := make([]string, 32)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	manifest := `{"name":"shutdown","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[` + strings.Join(seeds, ",") + `]}`
	var m campaign.Manifest
	if err := json.Unmarshal([]byte(manifest), &m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first := startDaemon(t, "-store", dir, "-workers", "1")
	id := postCampaign(t, first, manifest).ID
	waitFor(t, func() bool {
		var st campaign.Status
		getJSON(t, first.URL+"/v1/cluster/campaigns/"+id, &st)
		return st.Completed > 0
	})
	first.stop()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, key := range campaignKeys(t, m) {
		if store.Has(key) {
			stored++
		}
	}
	if stored == 0 || stored == 64 {
		t.Fatalf("%d of 64 runs stored after shutdown: it must interrupt the campaign, not drain it", stored)
	}

	second := startDaemon(t, "-store", dir, "-workers", "1", "-resume")
	st := pollDone(t, second, id)
	if st.Failed != 0 || st.Cached < stored || st.Cached+st.Completed != 64 {
		t.Fatalf("resumed campaign: %+v (%d runs were stored before the restart)", st, stored)
	}
	if !bytes.Equal(mergedResult(t, second, id), campaigntest.LibraryReference(t, m)) {
		t.Fatal("merged artifact after shutdown + resume differs from the library reference")
	}
}
