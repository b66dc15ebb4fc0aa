package resilience

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScanJournalSkipsTornTail: every complete line is visited in
// order, and a torn final line is neither visited nor counted in the
// returned offset.
func TestScanJournalSkipsTornTail(t *testing.T) {
	whole := "{\"fp\":\"a\"}\n{\"fp\":\"b\"}\n"
	var got []string
	valid, err := ScanJournal([]byte(whole+`{"fp":"c"`), func(n int, line []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", n, line))
		return nil
	})
	if err != nil {
		t.Fatalf("ScanJournal: %v", err)
	}
	if valid != int64(len(whole)) {
		t.Errorf("valid offset = %d, want %d", valid, len(whole))
	}
	if want := []string{`1:{"fp":"a"}`, `2:{"fp":"b"}`}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("visited %q, want %q", got, want)
	}
}

func TestScanJournalErrorAborts(t *testing.T) {
	data := []byte("{\"fp\":\"a\"}\nnot json\n{\"fp\":\"c\"}\n")
	calls := 0
	valid, err := ScanJournal(data, func(n int, line []byte) error {
		calls++
		var rec struct {
			FP string `json:"fp"`
		}
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			return fmt.Errorf("line %d corrupt: %w", n, jerr)
		}
		return nil
	})
	if err == nil {
		t.Fatal("mid-file corruption must abort the scan")
	}
	if calls != 2 {
		t.Errorf("fn called %d times, want 2 (abort at the corrupt line)", calls)
	}
	if want := int64(len("{\"fp\":\"a\"}\n")); valid != want {
		t.Errorf("valid offset = %d, want %d (end of the last good line)", valid, want)
	}
}

func TestTruncateTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	whole := "{\"a\":1}\n{\"b\":2}\n"
	if err := os.WriteFile(path, []byte(whole+`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := TruncateTail(f, int64(len(whole))); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	// The next append must start on a line boundary.
	if _, err := f.WriteString("{\"c\":3}\n"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := whole + "{\"c\":3}\n"; string(got) != want {
		t.Errorf("after TruncateTail+append:\n%q\nwant:\n%q", got, want)
	}
}
