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

func TestCampaignLifecycleAndEvents(t *testing.T) {
	c, err := NewCampaign("c0001-events", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Total != 2 || st.Queued != 2 || st.Done {
		t.Fatalf("initial status: %+v", st)
	}

	events, cancel := c.Subscribe()
	defer cancel()

	// Drive the lifecycle the way the coordinator does: started, then
	// done with its completion detail, then the campaign finishes.
	for i := range st.Runs {
		c.Transition(i, RunRunning, nil)
		if snap := c.Transition(i, RunDone, &RunUpdate{Attempts: 1, EndS: 10}); snap.State != RunDone || snap.EndS != 10 {
			t.Fatalf("transition snapshot: %+v", snap)
		}
	}
	c.Finish()

	select {
	case <-c.Done():
	default:
		t.Fatal("Done channel not closed after Finish returned")
	}

	var runEvents, terminalRunEvents, campaignEvents int
	for ev := range events {
		switch ev.Type {
		case "run":
			runEvents++
			if ev.Run.State.Terminal() {
				terminalRunEvents++
			}
		case "campaign":
			campaignEvents++
			if !ev.Status.Done || ev.Status.Completed != 2 {
				t.Fatalf("terminal campaign event: %+v", ev.Status)
			}
		}
	}
	if terminalRunEvents != 2 {
		t.Fatalf("saw %d terminal run events, want 2 (of %d run events)", terminalRunEvents, runEvents)
	}
	if campaignEvents != 1 {
		t.Fatalf("saw %d campaign events, want 1", campaignEvents)
	}

	// A late subscriber still observes the terminal snapshot on a closed
	// channel.
	late, lateCancel := c.Subscribe()
	defer lateCancel()
	ev, ok := <-late
	if !ok || ev.Type != "campaign" || !ev.Status.Done {
		t.Fatalf("late subscription: ok=%v ev=%+v", ok, ev)
	}
	if _, ok := <-late; ok {
		t.Fatal("late subscription channel not closed after terminal event")
	}

	st = c.Status()
	if !st.Done || st.Completed != 2 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("final status: %+v", st)
	}
	for _, r := range st.Runs {
		if r.State != RunDone || r.EndS <= 0 {
			t.Fatalf("final run status: %+v", r)
		}
	}
}

// TestStalledSubscriberStillGetsTerminalEvent is the slow-consumer
// regression test: a subscriber that never drains overflows its buffer and
// drops intermediate events, but must still find the terminal campaign
// snapshot as the last event before close — a dropped run event must never
// cost a client campaign completion.
func TestStalledSubscriberStillGetsTerminalEvent(t *testing.T) {
	c, err := NewCampaign("c0001-stall", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.Subscribe()
	defer cancel()

	// Far more transitions than the buffer holds, with the subscriber
	// deliberately stalled (nothing reads the channel yet).
	for i := 0; i < 4*subscriberBuffer; i++ {
		c.Transition(i%2, RunRunning, nil)
		c.Transition(i%2, RunDone, nil)
	}
	c.Finish()

	var last Event
	n := 0
	for ev := range events {
		last = ev
		n++
	}
	if n > subscriberBuffer {
		t.Fatalf("stalled subscriber buffered %d events, cap is %d", n, subscriberBuffer)
	}
	if last.Type != "campaign" || last.Status == nil || !last.Status.Done {
		t.Fatalf("last event before close is %+v, want the terminal campaign snapshot", last)
	}
	if last.Status.Completed != 2 {
		t.Fatalf("terminal snapshot: %+v", last.Status)
	}
}

// TestLossySubscriberResyncsWithSnapshot verifies the gap-healing path: a
// subscriber that dropped events receives a full status snapshot before the
// next incremental event, so a missed transition (e.g. a resume flipping a
// run to cached) can never leave the client's view permanently stale.
func TestLossySubscriberResyncsWithSnapshot(t *testing.T) {
	c, err := NewCampaign("c0001-resync", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.Subscribe()
	defer cancel()

	// Overflow the buffer so at least one event drops and the subscriber
	// is marked lossy.
	for i := 0; i < 2*subscriberBuffer; i++ {
		c.Transition(0, RunRunning, nil)
	}
	// Stall over: drain everything buffered so far.
	for len(events) > 0 {
		<-events
	}
	// The transition the stalled client must not miss.
	c.Transition(1, RunCached, nil)

	ev := <-events
	if ev.Type != "campaign" || ev.Status == nil {
		t.Fatalf("first post-stall event is %+v, want a campaign resync snapshot", ev)
	}
	if got := ev.Status.Runs[1].State; got != RunCached {
		t.Fatalf("resync snapshot shows run 1 as %q, want %q", got, RunCached)
	}
	ev = <-events
	if ev.Type != "run" || ev.Run == nil || ev.Run.State != RunCached {
		t.Fatalf("incremental event after resync: %+v", ev)
	}
}
