package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/cluster"
)

// TestRunWorkerExecutesAndDrainsOnSignal runs a worker-mode process
// against an in-process coordinator: the worker must register, claim
// and execute every run of a submitted campaign, and exit cleanly when
// the process receives SIGTERM.
func TestRunWorkerExecutesAndDrainsOnSignal(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	mux := http.NewServeMux()
	co.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The context main builds: SIGTERM ends it.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer cancel()
	var out syncBuffer
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- run(ctx, []string{"-join", ts.URL, "-node", "wtest", "-capacity", "2", "-store", dir, "-max-attempts", "2"}, &out)
	}()

	// Wait for registration, then submit and let the worker drain it.
	waitFor(t, func() bool { return len(co.Nodes()) == 1 })
	id, err := co.Submit(campaign.Manifest{
		Name:   "worker-e2e",
		Env:    campaign.EnvTiny,
		Rounds: 2,
		Strategies: []campaign.StrategySpec{
			{Kind: "fedavg"},
			{Kind: "opp"},
		},
		Seeds: []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		c, err := co.Campaign(id)
		return err == nil && c.Status().Done
	})
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("campaign status after worker drain: %+v", st)
	}

	// SIGTERM ends the context; the loop must join its heartbeat
	// goroutine and return nil.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker process returned %v", err)
		}
	case <-time.After(10 * time.Second): //roadlint:allow wallclock test harness timeout for worker shutdown
		t.Fatal("worker did not exit after SIGTERM")
	}
	log := out.String()
	if !strings.Contains(log, "worker wtest joined") {
		t.Fatalf("worker log missing join line: %q", log)
	}
	if !strings.Contains(log, "worker wtest: done") {
		t.Fatalf("worker log missing completion lines: %q", log)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond) //roadlint:allow wallclock test harness polling for the worker goroutine
	}
	t.Fatal("condition never became true")
}

// syncBuffer is a goroutine-safe strings.Builder for the worker's log.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
