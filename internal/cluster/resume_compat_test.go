package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"roadrunner/internal/campaign"
	"roadrunner/internal/campaign/campaigntest"
)

// TestResumeCampaignWrittenWithEvalWorkers is the compatibility proof for
// deleting the eval_workers knob: testdata holds the journal and the queue
// log of a part-done campaign the parent build (cb27c49) wrote from a
// manifest setting "eval_workers": 2 — two runs done, one claimed and
// started, one never claimed — so the key sits in the journal's manifest
// and in every enqueued spec's config. Resumed on a fresh store behind a
// LocalLink worker, the campaign must finish under the run keys the parent
// recorded, with the merged bytes of the same manifest without the field.
func TestResumeCampaignWrittenWithEvalWorkers(t *testing.T) {
	const id = "c0001-1ed14731"
	journal, err := os.ReadFile(filepath.Join("testdata", "resume_eval_workers_cb27c49.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	queueLog, err := os.ReadFile(filepath.Join("testdata", "resume_eval_workers_cb27c49.queue.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`"eval_workers":2`)); n != 1 {
		t.Fatalf("fixture journal carries eval_workers %d times, want once (the manifest)", n)
	}
	if n := bytes.Count(queueLog, []byte(`"eval_workers":2`)); n != 4 {
		t.Fatalf("fixture queue log carries eval_workers %d times, want once per enqueued spec", n)
	}

	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.JournalPath(id), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.QueueLogPath(), queueLog, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadQueueLog(store.QueueLogPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Op != "enqueue-batch" || len(recs[0].Batch) != 4 {
		t.Fatalf("fixture does not open with the campaign's four enqueues: %+v", recs)
	}
	var recorded []string
	for _, e := range recs[0].Batch {
		// The spec as decoded today, field dropped, still hashes to the
		// key the parent wrote beside it.
		key, err := e.Spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if key != e.Key {
			t.Fatalf("%s: the spec decoded from the fixture keys to %.8s, the parent recorded %.8s", e.Spec.Name, key, e.Key)
		}
		recorded = append(recorded, e.Key)
	}

	co, err := NewCoordinator(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	if err := co.Resume(id); err != nil {
		t.Fatal(err)
	}
	c, err := co.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, &Worker{
		Link: LocalLink(co, "w1"), Node: "w1", Capacity: 2,
		Runner: NewRunner(store, 1, 2, func(int) {}), idlePoll: 5 * time.Millisecond,
	})
	receive(t, c.Done(), "the resumed campaign to finish")

	st := c.Status()
	if st.Failed != 0 || st.Completed+st.Cached != len(recorded) {
		t.Fatalf("resumed campaign status: %+v", st)
	}
	for i, run := range st.Runs {
		if run.Key != recorded[i] {
			t.Fatalf("run %d (%s) resumed under key %.8s, the parent recorded %.8s", i, run.Name, run.Key, recorded[i])
		}
	}
	got, err := co.MergedResult(id)
	if err != nil {
		t.Fatal(err)
	}
	without := campaign.Manifest{
		Name:   "eval-workers-resume",
		Env:    campaign.EnvTiny,
		Rounds: 2,
		Strategies: []campaign.StrategySpec{
			{Kind: "fedavg"},
			{Kind: "opp"},
		},
		Seeds: []uint64{1, 2},
	}
	if !bytes.Equal(got, campaigntest.LibraryReference(t, without)) {
		t.Fatal("resumed merge differs from the library reference of the manifest without eval_workers")
	}
}
