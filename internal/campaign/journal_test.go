package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

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
