// Package wal is the durable-log primitive under the campaign journal,
// the queue log and the queue snapshot. It states the discipline once:
//
//   - a log is a file of newline-terminated records;
//   - a final record that lacks its newline, or that the caller's decoder
//     rejects, is a torn write from a crash: reads drop it, and Open
//     truncates it away before the first append, because a record
//     appended after a tear would concatenate onto it and the next
//     replay would refuse the log;
//   - a rejected record followed by any later record is corruption, not
//     a torn write, and is an error: resuming past it would silently
//     drop every record after it;
//   - a record of 16 MiB or more is an error, on read and on append,
//     never a silent stop;
//   - Append makes a whole group of records durable with one fsync;
//   - Replace publishes a whole file atomically (tmp, flush, fsync,
//     rename), so readers see the old file or the new one, never a mix.
package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// maxRecord bounds one record including its newline.
const maxRecord = 1 << 24

// splitRecord is bufio.ScanLines that keeps the newline, so scan can tell
// a terminated record from a torn tail and count exact byte offsets.
func splitRecord(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// scan streams r's records to decode and returns the byte length of the
// valid prefix: everything before a torn tail. Blank lines are skipped.
func scan(r io.Reader, decode func(rec []byte) error) (valid int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRecord)
	sc.Split(splitRecord)
	var off int64
	var tornErr error
	line, tornLine := 0, 0
	for sc.Scan() {
		line++
		off += int64(len(sc.Bytes()))
		rec, terminated := bytes.CutSuffix(sc.Bytes(), []byte("\n"))
		if len(rec) == 0 {
			if tornLine == 0 {
				valid = off
			}
			continue
		}
		if tornLine > 0 {
			return 0, fmt.Errorf("corrupt record at line %d (%v) is followed by more records (line %d) — not a torn trailing write", tornLine, tornErr, line)
		}
		if !terminated {
			tornLine, tornErr = line, io.ErrUnexpectedEOF
		} else if tornErr = decode(rec); tornErr != nil {
			tornLine = line
		} else {
			valid = off
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("line %d: %w", line+1, err)
	}
	return valid, nil
}

// Read streams the records of the log at path to decode, in order. The
// slice handed to decode is only valid during the call. A missing file
// is an error wrapping os.ErrNotExist.
func Read(path string, decode func(rec []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	_, err = scan(f, decode)
	return err
}

// Log is an append handle on a log whose torn tail, if any, is gone.
type Log struct{ f *os.File }

// Open replays the log at path through decode (creating an empty log if
// none exists), truncates it to its valid prefix and returns it ready
// for Append.
func Open(path string, decode func(rec []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := scan(f, decode)
	if err == nil {
		err = f.Truncate(valid)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes recs, each followed by a newline, and makes the whole
// group durable with a single fsync.
func (l *Log) Append(recs ...[]byte) error {
	for _, rec := range recs {
		if len(rec)+1 >= maxRecord {
			return fmt.Errorf("wal: %d-byte record exceeds the %d-byte limit", len(rec), maxRecord)
		}
	}
	for _, rec := range recs {
		if _, err := l.f.Write(append(rec, '\n')); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

// Close releases the log's file handle.
func (l *Log) Close() error { return l.f.Close() }

// Replace atomically replaces the file at path with the records write
// hands to put. On any failure the old file is untouched and the
// temporary file is removed.
func Replace(path string, write func(put func(rec []byte) error) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	err = write(func(rec []byte) error {
		if _, err := w.Write(rec); err != nil {
			return err
		}
		return w.WriteByte('\n')
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	return err
}
