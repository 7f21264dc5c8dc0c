package cluster

import (
	"errors"
	"testing"

	"roadrunner/internal/campaign"
)

// TestStalledSubscriberStillGetsTerminalEvent is the slow-consumer
// regression test: a subscriber that never drains overflows its buffer and
// drops intermediate events, but must still find the terminal campaign
// snapshot as the last event before close — a dropped event must never
// cost a client campaign completion.
func TestStalledSubscriberStillGetsTerminalEvent(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 2)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := co.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Far more events than the buffer holds, with the subscriber
	// deliberately stalled (nothing reads the channel yet).
	for i := 0; i < 4*subscriberBuffer; i++ {
		co.RegisterNode("w1", 2)
	}
	if ran := drive(t, co, NewRunner(co.Store(), 1, 2, func(int) {}), "w1"); ran != 2 {
		t.Fatalf("worker ran %d assignments, want 2", ran)
	}

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
// next incremental event, so a missed transition (here a run starting
// while the buffer was full) can never leave the client's view
// permanently stale.
func TestLossySubscriberResyncsWithSnapshot(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 1)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := co.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Overflow the buffer so at least one event drops and the subscriber
	// is marked lossy.
	for i := 0; i < 2*subscriberBuffer; i++ {
		co.RegisterNode("w1", 1)
	}
	// The transition the stalled client must not miss.
	asgs, err := co.RequestWork("w1", 1)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("claim: %v %v", asgs, err)
	}
	if err := startRun(co, "w1", asgs[0].Lease); err != nil {
		t.Fatal(err)
	}
	// Stall over: drain everything buffered so far, then one more event.
	for len(events) > 0 {
		<-events
	}
	co.RegisterNode("w1", 1)

	ev := <-events
	if ev.Type != "campaign" || ev.Status == nil || ev.Status.Done {
		t.Fatalf("first post-stall event is %+v, want a campaign resync snapshot", ev)
	}
	for _, run := range ev.Status.Runs {
		if run.Key == asgs[0].Key && run.State != campaign.RunRunning {
			t.Fatalf("resync snapshot shows the started run as %q, want running", run.State)
		}
	}
	if ev.Status.Running != 1 {
		t.Fatalf("resync snapshot: %+v", ev.Status)
	}
	ev = <-events
	if ev.Type != "node-join" {
		t.Fatalf("incremental event after resync: %+v", ev)
	}
}

// TestLateSubscriberGetsTerminalEvent: a subscriber to a finished
// campaign gets its snapshot and the terminal event on a closed channel,
// and a subscription to an unknown campaign is refused.
func TestLateSubscriberGetsTerminalEvent(t *testing.T) {
	co := newTestCoordinator(t, t.TempDir())
	co.RegisterNode("w1", 2)
	id, err := co.Submit(tinyClusterManifest())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, co, NewRunner(co.Store(), 1, 2, func(int) {}), "w1")

	late, cancel, err := co.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var got []Event
	for ev := range late {
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Type != "snapshot" || got[1].Type != "campaign" {
		t.Fatalf("late subscription: %+v", got)
	}
	if st := got[1].Status; st == nil || !st.Done || st.Completed != 2 {
		t.Fatalf("late terminal event: %+v", got[1])
	}
	if _, _, err := co.Subscribe("c9999-none"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("subscribe to unknown campaign: err = %v", err)
	}
}
