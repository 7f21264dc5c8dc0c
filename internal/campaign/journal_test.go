package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCampaignCrashResumeByteIdentical is the resume-protocol contract test:
// a campaign killed mid-flight (injected store crash after the first run
// persisted) resumes from its journal, serves the completed run from the
// store without executing it, finishes the rest, and ends with final
// canonical bytes identical to an uninterrupted campaign's.
func TestCampaignCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const id = "c0001-crashtest"
	m := tinyManifest()

	// Phase 1: run the campaign into an injected crash. The first run's put
	// succeeds; the second run's put fails, as if the process died there.
	storeA, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeA.FailAfterPuts(1)
	schedA := instantScheduler(t, Options{Workers: 1, MaxAttempts: 1, Store: storeA})
	cA, err := NewCampaign(id, m)
	if err != nil {
		t.Fatal(err)
	}
	resultsA, err := schedA.RunCampaign(cA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resultsA) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(resultsA))
	}
	if resultsA[0].Err != nil {
		t.Fatalf("pre-crash run failed: %v", resultsA[0].Err)
	}
	if !errors.Is(resultsA[1].Err, ErrInjectedCrash) {
		t.Fatalf("post-crash run err = %v, want ErrInjectedCrash", resultsA[1].Err)
	}
	st := cA.Status()
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("interrupted campaign status: %+v", st)
	}

	// Phase 2: resume with a fresh store handle (the "restarted process").
	storeB, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	schedB := instantScheduler(t, Options{Workers: 1, Store: storeB})
	cB, resultsB, err := schedB.ResumeCampaign(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range resultsB {
		if tr.Err != nil {
			t.Fatalf("resumed run %d failed: %v", i, tr.Err)
		}
	}
	if !resultsB[0].Cached || resultsB[1].Cached {
		t.Fatalf("resume should cache-hit exactly the pre-crash run: %+v %+v", resultsB[0], resultsB[1])
	}
	if bs := schedB.Stats(); bs.Executed != 1 || bs.Cached != 1 {
		t.Fatalf("resume re-executed completed work: %+v", bs)
	}
	if st := cB.Status(); !st.Done || st.Cached != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("resumed campaign status: %+v", st)
	}

	// Phase 3: an uninterrupted control campaign in a separate store.
	storeC, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	schedC := instantScheduler(t, Options{Workers: 1, Store: storeC})
	cC, err := NewCampaign("c0002-control", m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedC.RunCampaign(cC); err != nil {
		t.Fatal(err)
	}

	keys := cB.Keys()
	control := cC.Keys()
	if len(keys) != len(control) {
		t.Fatalf("key counts differ: %d vs %d", len(keys), len(control))
	}
	for i, key := range keys {
		if key != control[i] {
			t.Fatalf("run %d keys diverge: %s vs %s", i, key, control[i])
		}
		resumed, err := storeB.CanonicalBytes(key)
		if err != nil {
			t.Fatalf("resumed store missing %s: %v", key, err)
		}
		uninterrupted, err := storeC.CanonicalBytes(key)
		if err != nil {
			t.Fatalf("control store missing %s: %v", key, err)
		}
		if !bytes.Equal(resumed, uninterrupted) {
			t.Fatalf("run %d: resumed bytes differ from the uninterrupted campaign", i)
		}
	}
}

func TestReadJournalToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := store.JournalPath("c0009-torn")
	lines := `{"type":"manifest","id":"c0009-torn","manifest":{"name":"smoke","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"}],"seeds":[1]}}
{"type":"run","run":{"name":"fedavg/s1/fault-free/default","key":"` + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef" + `","state":"done"}}
{"type":"run","run":{"name":"torn`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	m, runs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	if m.Name != "smoke" || len(m.Strategies) != 1 {
		t.Fatalf("manifest mis-read: %+v", m)
	}
	if len(runs) != 1 {
		t.Fatalf("read %d runs, want 1 (torn record dropped)", len(runs))
	}
}

func TestReadJournalRequiresManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournal(path); err == nil {
		t.Fatal("journal without manifest accepted")
	}
	if _, _, err := ReadJournal(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing journal accepted")
	}
}

func TestResumeRequiresStore(t *testing.T) {
	s := instantScheduler(t, Options{Workers: 1})
	if _, _, err := s.ResumeCampaign("c0001-anything"); err == nil {
		t.Fatal("resume without a store accepted")
	}
}
