package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// startCoordinator serves a real coordinator over httptest and returns
// its base URL plus the shared store directory.
func startCoordinator(t *testing.T) (string, string, *cluster.Coordinator) {
	t.Helper()
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	mux := http.NewServeMux()
	co.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, dir, co
}

// driveWorker executes every pending assignment in-process so roadctl
// has a finished campaign to inspect.
func driveWorker(t *testing.T, base, dir string) {
	t.Helper()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient(base, "w1")
	if err := client.Register(2); err != nil {
		t.Fatal(err)
	}
	runner := cluster.NewRunner(store, 1, 2, func(int) {})
	for {
		asgs, err := client.Claims(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(asgs) == 0 {
			return
		}
		for _, asg := range asgs {
			if errs, err := client.StartBatch([]campaign.LeaseID{asg.Lease}); err != nil || errs[0] != nil {
				continue
			}
			report := cluster.CompletionReport{Lease: asg.Lease, Outcome: runner.Run(asg)}
			if errs, err := client.CompleteBatch([]cluster.CompletionReport{report}); err != nil || errs[0] != nil {
				t.Fatal(err, errs)
			}
		}
	}
}

const testManifest = `{"name":"ctl","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[1]}`

// TestRoadctlFullFlow exercises every subcommand against a live
// coordinator: submit, run the campaign, then status, nodes, watch, and
// result (both stdout and -o file).
func TestRoadctlFullFlow(t *testing.T) {
	base, dir, co := startCoordinator(t)

	mf := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(mf, []byte(testManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	var submitOut strings.Builder
	if err := run([]string{"-addr", base, "submit", "-f", mf}, &submitOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(submitOut.String(), `"id"`) {
		t.Fatalf("submit output missing id: %s", submitOut.String())
	}
	ids := co.Campaigns()
	if len(ids) != 1 {
		t.Fatalf("coordinator has %d campaigns, want 1", len(ids))
	}
	id := ids[0].ID

	driveWorker(t, base, dir)

	var statusOut strings.Builder
	if err := run([]string{"-addr", base, "status", id}, &statusOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statusOut.String(), `"done": true`) {
		t.Fatalf("status output not done: %s", statusOut.String())
	}

	var nodesOut strings.Builder
	if err := run([]string{"-addr", base, "nodes"}, &nodesOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nodesOut.String(), `"name": "w1"`) {
		t.Fatalf("nodes output missing worker: %s", nodesOut.String())
	}

	// The campaign is done, so the SSE stream delivers its snapshot and
	// closes on the terminal event; watch must return with the snapshot
	// printed as a plain line.
	var watchOut strings.Builder
	if err := run([]string{"-addr", base, "watch", id}, &watchOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(watchOut.String(), `"type":"snapshot"`) {
		t.Fatalf("watch output missing snapshot: %s", watchOut.String())
	}

	var resultOut strings.Builder
	if err := run([]string{"-addr", base, "result", id}, &resultOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resultOut.String(), "roadrunner-merge-v1") {
		t.Fatalf("result output missing merge header: %.60s", resultOut.String())
	}
	outFile := filepath.Join(t.TempDir(), "merged.txt")
	if err := run([]string{"-addr", base, "result", "-o", outFile, id}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	fromFile, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(fromFile) != resultOut.String() {
		t.Fatalf("-o file differs from stdout result (%d vs %d bytes)", len(fromFile), resultOut.Len())
	}
}

// TestRoadctlSubmitFromStdin feeds the manifest through "-f -".
func TestRoadctlSubmitFromStdin(t *testing.T) {
	base, _, co := startCoordinator(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = orig }()
	if _, err := w.WriteString(testManifest); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	var out strings.Builder
	if err := run([]string{"-addr", base, "submit", "-f", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	if len(co.Campaigns()) != 1 {
		t.Fatalf("stdin submit did not register a campaign")
	}
}

// TestRoadctlErrors: usage mistakes and server-side failures surface as
// errors, not panics or silent exits.
func TestRoadctlErrors(t *testing.T) {
	base, _, _ := startCoordinator(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no command", []string{"-addr", base}},
		{"unknown command", []string{"-addr", base, "frobnicate"}},
		{"submit without file", []string{"-addr", base, "submit"}},
		{"submit missing file", []string{"-addr", base, "submit", "-f", "/nonexistent/manifest.json"}},
		{"status without id", []string{"-addr", base, "status"}},
		{"status unknown id", []string{"-addr", base, "status", "c9999-none"}},
		{"watch without id", []string{"-addr", base, "watch"}},
		{"watch unknown id", []string{"-addr", base, "watch", "c9999-none"}},
		{"result without id", []string{"-addr", base, "result"}},
		{"result unknown id", []string{"-addr", base, "result", "c9999-none"}},
		{"unreachable server", []string{"-addr", "http://127.0.0.1:1", "nodes"}},
	} {
		if err := run(tc.args, &strings.Builder{}); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
