package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recs decodes into a list; records starting with '!' are rejected, the
// way a caller's decoder rejects a record it cannot parse.
type recs []string

func (r *recs) decode(rec []byte) error {
	if rec[0] == '!' {
		return fmt.Errorf("rejected %q", rec)
	}
	*r = append(*r, string(rec))
	return nil
}

func readAll(t *testing.T, path string) recs {
	t.Helper()
	var got recs
	if err := Read(path, got.decode); err != nil {
		t.Fatal(err)
	}
	return got
}

// validPrefix is what scan reports for the file's current content.
func validPrefix(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := scan(bytes.NewReader(data), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return valid
}

// TestCrashAtEveryByteOffset is the torn-tail property, once for every
// user of the package: whatever byte a crash cut the log at, reopening
// keeps exactly the records wholly inside the cut, appends land after
// them, and the file that results has no torn bytes left in it.
func TestCrashAtEveryByteOffset(t *testing.T) {
	var full []byte
	var ends []int // ends[i]: offset just past record i's newline
	var all recs
	for i := 0; i < 6; i++ {
		rec := fmt.Sprintf("rec-%d-%s", i, strings.Repeat("x", i*3))
		all = append(all, rec)
		full = append(append(full, rec...), '\n')
		ends = append(ends, len(full))
	}
	path := filepath.Join(t.TempDir(), "log")
	for b := 0; b <= len(full); b++ {
		if err := os.WriteFile(path, full[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		var want, replayed recs
		for i, end := range ends {
			if end <= b {
				want = append(want, all[i])
			}
		}
		l, err := Open(path, replayed.decode)
		if err != nil {
			t.Fatalf("cut at %d: %v", b, err)
		}
		if !reflect.DeepEqual(replayed, want) {
			t.Fatalf("cut at %d: replayed %q, want %q", b, replayed, want)
		}
		if err := l.Append([]byte("new-1"), []byte("new-2")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, "new-1", "new-2")
		if got := readAll(t, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: after append read %q, want %q", b, got, want)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if valid := validPrefix(t, path); valid != info.Size() {
			t.Fatalf("cut at %d: valid prefix %d of a %d-byte file", b, valid, info.Size())
		}
	}
}

func TestTornTailRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content string
		want    recs  // records replayed
		valid   int64 // bytes Open keeps
		refused bool
	}{
		{name: "empty", content: ""},
		{name: "clean", content: "a\nb\n", want: recs{"a", "b"}, valid: 4},
		{name: "blank lines are skipped", content: "a\n\nb\n\n", want: recs{"a", "b"}, valid: 6},
		{name: "unterminated final record", content: "a\nb", want: recs{"a"}, valid: 2},
		{name: "rejected final record", content: "a\n!b\n", want: recs{"a"}, valid: 2},
		{name: "blank line after a rejected record", content: "a\n!b\n\n\n", want: recs{"a"}, valid: 2},
		{name: "only a torn record", content: "!a", valid: 0},
		{name: "rejected record, then a record", content: "a\n!b\nc\n", refused: true},
		{name: "rejected record, then a fragment", content: "a\n!b\nc", refused: true},
		{name: "rejected record, blank, then a record", content: "!a\n\nb\n", refused: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var read, replayed recs
			rerr := Read(path, read.decode)
			l, oerr := Open(path, replayed.decode)
			if tc.refused {
				if rerr == nil || oerr == nil || !strings.Contains(oerr.Error(), "corrupt record at line") {
					t.Fatalf("corruption accepted: Read %v, Open %v", rerr, oerr)
				}
				if data, _ := os.ReadFile(path); string(data) != tc.content {
					t.Fatalf("refused log was modified: %q", data)
				}
				return
			}
			if rerr != nil || oerr != nil {
				t.Fatalf("Read %v, Open %v", rerr, oerr)
			}
			defer func() { _ = l.Close() }()
			if !reflect.DeepEqual(read, tc.want) || !reflect.DeepEqual(replayed, tc.want) {
				t.Fatalf("Read %q, Open %q, want %q", read, replayed, tc.want)
			}
			if info, _ := os.Stat(path); info.Size() != tc.valid {
				t.Fatalf("Open left %d bytes, want the %d-byte valid prefix", info.Size(), tc.valid)
			}
			if err := l.Append([]byte("z")); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, path); !reflect.DeepEqual(got, append(tc.want, "z")) {
				t.Fatalf("after append read %q", got)
			}
		})
	}
}

func TestOversizedRecordIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	huge := bytes.Repeat([]byte("x"), maxRecord)
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("a"), huge); err == nil {
		t.Fatal("Append wrote a record no reader can read back")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := os.Stat(path); info.Size() != 0 {
		t.Fatalf("refused group left %d bytes behind", info.Size())
	}
	// Written behind the package's back, it must stop the reader loudly.
	if err := os.WriteFile(path, append(append([]byte("a\n"), huge...), "\nb\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	var got recs
	if err := Read(path, got.decode); err == nil {
		t.Fatalf("Read stopped silently at an oversized record after %q", got)
	}
	if _, err := Open(path, got.decode); err == nil {
		t.Fatal("Open accepted an oversized record")
	}
}

func TestReadMissingFile(t *testing.T) {
	err := Read(filepath.Join(t.TempDir(), "absent"), func([]byte) error { return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestReplaceIsAllOrNothing: after Replace the file is the old content
// or the new, never a mix, and a failed Replace leaves no .tmp behind.
func TestReplaceIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	put2 := func(a, b string) func(func([]byte) error) error {
		return func(put func([]byte) error) error {
			if err := put([]byte(a)); err != nil {
				return err
			}
			return put([]byte(b))
		}
	}
	if err := Replace(path, put2("old-1", "old-2")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); !reflect.DeepEqual(got, recs{"old-1", "old-2"}) {
		t.Fatalf("first publish: %q", got)
	}

	// A writer that fails midway: the old file survives whole.
	boom := errors.New("boom")
	err := Replace(path, func(put func([]byte) error) error {
		if err := put([]byte("new-1")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if got := readAll(t, path); !reflect.DeepEqual(got, recs{"old-1", "old-2"}) {
		t.Fatalf("failed Replace changed the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Replace left its .tmp: %v", err)
	}

	// A rename that fails (the target is a non-empty directory).
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Replace(blocked, put2("new-1", "new-2")); err == nil {
		t.Fatal("Replace over a directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed rename left its .tmp: %v", err)
	}

	// A stale .tmp from a crashed Replace is overwritten, not appended to.
	if err := os.WriteFile(path+".tmp", []byte("stale-stale-stale-stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replace(path, put2("new-1", "new-2")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); !reflect.DeepEqual(got, recs{"new-1", "new-2"}) {
		t.Fatalf("second publish: %q", got)
	}
}
