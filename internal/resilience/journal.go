package resilience

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// ScanJournal walks the bytes of an append-only JSONL journal, calling
// fn once per complete line (1-based line number, newline excluded), and
// returns the byte offset just past the last complete line. A torn final
// line — no trailing newline, the signature of a killed process — is not
// visited: the writer truncates to the returned offset and re-appends,
// which is the crash-tolerance contract the result store's segments rely
// on. An error from fn aborts the scan: mid-file corruption means the
// file is not the journal it claims to be.
func ScanJournal(data []byte, fn func(n int, line []byte) error) (int64, error) {
	var off int64
	n := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		n++
		if err := fn(n, data[:nl]); err != nil {
			return off, err
		}
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return off, nil
}

// TruncateTail drops a torn trailing line from an append-only journal
// file: it truncates f at valid (the offset ScanJournal returned) and
// seeks there, so the next append starts on a line boundary, for a
// journal writer that reopens a file a killed process may have left
// mid-line.
func TruncateTail(f *os.File, valid int64) error {
	if err := f.Truncate(valid); err != nil {
		return fmt.Errorf("resilience: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("resilience: seeking journal: %w", err)
	}
	return nil
}
