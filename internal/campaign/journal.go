package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"roadrunner/internal/wal"
)

// The campaign journal is the resume protocol's manifest record: a JSONL
// file under <store>/campaigns/<id>.jsonl whose one record is the
// submitted manifest, written and fsync'd before any of the campaign's
// work enters the queue. A campaign killed mid-flight therefore leaves (a)
// a manifest that re-expands to the identical spec list and keys, (b) a
// store holding every run that completed, and (c) a queue log holding the
// rest. Resuming re-submits the journaled manifest under its original ID
// (cluster.Coordinator.Resume): completed runs are store hits served
// byte-identically without execution, unfinished ones are still in the
// durable queue — so the resumed campaign's final output is
// byte-identical to an uninterrupted one's. Journals written by earlier
// builds also hold one "run" record per terminal run; they are read and
// ignored.

// journalRecord is one line of the journal file.
type journalRecord struct {
	// Type is "manifest" or "run".
	Type string `json:"type"`
	// ID repeats the campaign ID on manifest records, for self-description.
	ID       string     `json:"id,omitempty"`
	Manifest *Manifest  `json:"manifest,omitempty"`
	Run      *RunStatus `json:"run,omitempty"`
}

// JournalPath returns the campaign's journal location inside the store —
// the file a resume reads.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.root, "campaigns", id+".jsonl")
}

// JournaledCampaignIDs lists every campaign with a journal in the store,
// sorted, so a restarted service can resume interrupted work.
func (s *Store) JournaledCampaignIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "campaigns"))
	if err != nil {
		return nil, fmt.Errorf("campaign: list journals: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".jsonl"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Journal is an open campaign journal. The coordinator opens one via
// Store.OpenJournal, which writes the manifest record, and closes it
// again before enqueueing the campaign's work.
type Journal struct {
	mu  sync.Mutex
	log *wal.Log
}

// OpenJournal opens the campaign's journal inside the store, repairing a
// torn tail and writing the manifest header if needed.
func (s *Store) OpenJournal(c *Campaign) (*Journal, error) {
	return openJournal(s.JournalPath(c.ID()), c)
}

// journalReplay folds journal records into the submitted manifest and,
// when runs is non-nil, the terminal run states (later records for the
// same key supersede earlier ones). It is the journal's wal decoder: a
// first record that is not the manifest header is rejected, so a journal
// torn inside its very first write reads as empty.
type journalReplay struct {
	manifest *Manifest
	runs     map[string]RunStatus
}

func (r *journalReplay) decode(line []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	switch {
	case r.manifest == nil:
		if rec.Type != "manifest" || rec.Manifest == nil {
			return fmt.Errorf("first record is %q, not the manifest header", rec.Type)
		}
		r.manifest = rec.Manifest
	case rec.Type == "run" && rec.Run != nil && rec.Run.Key != "" && r.runs != nil:
		r.runs[rec.Run.Key] = *rec.Run
	}
	return nil
}

// openJournal opens (or creates) the campaign's journal — internal/wal
// drops a torn tail from a previous crash — and writes the manifest
// header record when the journal holds none.
func openJournal(path string, c *Campaign) (*Journal, error) {
	var replay journalReplay
	l, err := wal.Open(path, replay.decode)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	j := &Journal{log: l}
	if replay.manifest == nil {
		m := c.Manifest()
		if err := j.append(journalRecord{Type: "manifest", ID: c.ID(), Manifest: &m}); err != nil {
			j.Close()
			return nil, err
		}
	}
	return j, nil
}

func (j *Journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(data); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// RecordRun appends a terminal run state. No coordinator path writes one:
// resume reads only the manifest, and the store and the queue log hold
// every run's outcome. It stays for benchmark/, which times the journal's
// fsync'd append. Errors are swallowed after best effort.
func (j *Journal) RecordRun(run RunStatus) {
	_ = j.append(journalRecord{Type: "run", Run: &run})
}

// Close releases the journal's file handle.
func (j *Journal) Close() { _ = j.log.Close() }

// ReadJournal parses a campaign journal, returning the submitted manifest
// and any terminal run states it holds (journals of earlier builds, or
// RecordRun). A partially written trailing record — the crash case — is
// ignored; an unreadable record with records after it is corruption and
// an error, the same rule the journal is opened under.
func ReadJournal(path string) (Manifest, map[string]RunStatus, error) {
	replay := journalReplay{runs: make(map[string]RunStatus)}
	if err := wal.Read(path, replay.decode); err != nil {
		return Manifest{}, nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	if replay.manifest == nil {
		return Manifest{}, nil, fmt.Errorf("campaign: journal %s has no manifest record", path)
	}
	return *replay.manifest, replay.runs, nil
}
