package campaign

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Journal replay edge cases, table-driven: each case writes a journal
// file byte-for-byte, replays it, and checks what survives. The torn-tail
// cases are the load-bearing ones for lease recovery — a crashed worker's
// re-issued runs are only served from the store if the journal that
// proves them complete stays readable across append sessions.

const replayManifestLine = `{"type":"manifest","id":"c0100-replay","manifest":{"name":"smoke","env":"tiny","rounds":2,"strategies":[{"kind":"fedavg"},{"kind":"opp"}],"seeds":[1]}}`

func runLine(key, state string) string {
	return fmt.Sprintf(`{"type":"run","run":{"name":"r-%s","key":"%s","state":"%s"}}`, key[:4], key, state)
}

func hexKey(fill byte) string { return strings.Repeat(string(fill), 64) }

func TestReadJournalEdgeCases(t *testing.T) {
	keyA, keyB := hexKey('a'), hexKey('b')
	cases := []struct {
		name      string
		content   string
		wantErr   bool
		wantRuns  int
		wantState map[string]RunState
	}{
		{
			name:     "truncated final record is dropped",
			content:  replayManifestLine + "\n" + runLine(keyA, "done") + "\n" + `{"type":"run","run":{"na`,
			wantRuns: 1,
			wantState: map[string]RunState{
				keyA: RunDone,
			},
		},
		{
			name:     "truncated record without any newline",
			content:  replayManifestLine + "\n" + runLine(keyA, "done") + "\n" + runLine(keyB, "done")[:20],
			wantRuns: 1,
		},
		{
			name:     "duplicate entries: later record supersedes earlier",
			content:  replayManifestLine + "\n" + runLine(keyA, "failed") + "\n" + runLine(keyA, "done") + "\n",
			wantRuns: 1,
			wantState: map[string]RunState{
				keyA: RunDone,
			},
		},
		{
			name:     "duplicate identical entries collapse",
			content:  replayManifestLine + "\n" + runLine(keyA, "done") + "\n" + runLine(keyA, "done") + "\n" + runLine(keyB, "cached") + "\n",
			wantRuns: 2,
			wantState: map[string]RunState{
				keyA: RunDone,
				keyB: RunCached,
			},
		},
		{
			name:    "torn manifest line is unreadable",
			content: replayManifestLine[:30],
			wantErr: true,
		},
		{
			name:    "empty journal",
			content: "",
			wantErr: true,
		},
		{
			name:     "blank lines are skipped",
			content:  replayManifestLine + "\n\n" + runLine(keyA, "done") + "\n",
			wantRuns: 1,
		},
		{
			// The queue's rule since PR 10, now the journal's too: resuming
			// past the bad line would silently un-journal every later run.
			name:    "records after an unparseable middle line are unreadable: corruption",
			content: replayManifestLine + "\n" + "not json\n" + runLine(keyA, "done") + "\n",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := store.JournalPath("c0100-replay")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			m, runs, err := ReadJournal(path)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("replay accepted, want error (manifest %+v)", m)
				}
				return
			}
			if err != nil {
				t.Fatalf("replay failed: %v", err)
			}
			if m.Name != "smoke" {
				t.Fatalf("manifest name %q", m.Name)
			}
			if len(runs) != tc.wantRuns {
				t.Fatalf("replayed %d runs, want %d: %+v", len(runs), tc.wantRuns, runs)
			}
			for key, state := range tc.wantState {
				if runs[key].State != state {
					t.Fatalf("run %s state %q, want %q", key[:4], runs[key].State, state)
				}
			}
		})
	}
}

// TestOpenJournalRepairsTornTail is the regression test for the
// partial-write append bug: appending after a torn trailing record used
// to concatenate the new record onto the tear, so the NEXT replay lost
// every record after it. openJournal must truncate the tear first.
func TestOpenJournalRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign("c0100-replay", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	keys := c.Keys()
	path := store.JournalPath(c.ID())

	// Crash artifact: one complete run record, then a torn half-record.
	torn := replayManifestLine + "\n" + runLine(keys[0], "done") + "\n" + `{"type":"run","run":{"name":"torn`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// The resumed process appends the second run's terminal record.
	j, err := store.OpenJournal(c)
	if err != nil {
		t.Fatal(err)
	}
	j.RecordRun(RunStatus{Name: "r2", Key: keys[1], State: RunDone})
	j.Close()

	// Replay must now see BOTH runs: the pre-crash record and the
	// appended one, with the tear gone.
	_, runs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("replay after torn-tail append found %d runs, want 2: %+v", len(runs), runs)
	}
	if runs[keys[0]].State != RunDone || runs[keys[1]].State != RunDone {
		t.Fatalf("run states: %+v", runs)
	}
}

// TestOpenJournalRewritesTornManifest: a crash inside the very first
// write leaves a torn manifest line; opening the journal again must
// rewrite the header so the campaign stays resumable.
func TestOpenJournalRewritesTornManifest(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign("c0100-replay", tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	path := store.JournalPath(c.ID())
	if err := os.WriteFile(path, []byte(replayManifestLine[:25]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(c)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	m, runs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after torn-manifest repair: %v", err)
	}
	if m.Name != "smoke" || len(runs) != 0 {
		t.Fatalf("repaired journal: manifest %q, %d runs", m.Name, len(runs))
	}
}
