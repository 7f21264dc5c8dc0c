package campaign

import (
	"testing"
)

func TestNewCampaignRejects(t *testing.T) {
	if _, err := NewCampaign("", tinyManifest()); err == nil {
		t.Fatal("empty campaign id accepted")
	}
	bad := tinyManifest()
	bad.Strategies = nil
	if _, err := NewCampaign("c0001-bad", bad); err == nil {
		t.Fatal("invalid manifest accepted")
	}
}

// TestCampaignLifecycleAndEvents drives the run lifecycle the way the
// coordinator does and checks what each transition reports and what the
// finished campaign reads; the coordinator publishes these transitions as
// its "run" events (internal/cluster).
func TestCampaignLifecycleAndEvents(t *testing.T) {
	c, err := NewCampaign("c0001-events", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Total != 2 || st.Queued != 2 || st.Done {
		t.Fatalf("initial status: %+v", st)
	}

	// Started, then done with its completion detail, then the campaign
	// finishes.
	for i := range st.Runs {
		if snap := c.Transition(i, RunRunning, nil); snap.State != RunRunning || snap.Key != st.Runs[i].Key {
			t.Fatalf("running snapshot: %+v", snap)
		}
		if snap := c.Transition(i, RunDone, &RunUpdate{Attempts: 1, EndS: 10}); snap.State != RunDone || snap.EndS != 10 {
			t.Fatalf("transition snapshot: %+v", snap)
		}
	}
	select {
	case <-c.Done():
		t.Fatal("Done channel closed before Finish")
	default:
	}
	c.Finish()
	c.Finish() // idempotent
	select {
	case <-c.Done():
	default:
		t.Fatal("Done channel not closed after Finish returned")
	}

	st = c.Status()
	if !st.Done || st.Completed != 2 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("final status: %+v", st)
	}
	for _, r := range st.Runs {
		if r.State != RunDone || r.EndS <= 0 || r.Attempts != 1 {
			t.Fatalf("final run status: %+v", r)
		}
	}
}
