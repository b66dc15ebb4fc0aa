package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func sidecarRecord(fingerprint string, index int) Record {
	return Record{
		Schema:  Schema,
		RunInfo: RunInfo{Index: index, Fingerprint: fingerprint, Load: 0.5},
		Every:   100,
		Points:  []Point{{Cycle: 100, FlitsInjected: int64(index) * 10}},
	}
}

func TestSidecarRejectsUnknownSchema(t *testing.T) {
	if _, err := DecodeSidecar([]byte(`{"schema":"smart/timeseries/v99"}` + "\n")); err == nil {
		t.Fatal("decode of unknown schema succeeded, want error")
	}
}

// TestSidecarRejectsUnknownFields: a record with a field the schema
// does not define is refused, so a drifted file cannot pass -check and
// digest like the clean one.
func TestSidecarRejectsUnknownFields(t *testing.T) {
	line, err := json.Marshal(sidecarRecord("x", 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSidecar(append(line, '\n')); err != nil {
		t.Fatalf("clean record refused: %v", err)
	}
	drifted := strings.Replace(string(line), `"every":100`, `"every":100,"evry":50`, 1)
	if drifted == string(line) {
		t.Fatal("test record carries no every field")
	}
	if _, err := DecodeSidecar([]byte(drifted + "\n")); err == nil || !strings.Contains(err.Error(), "evry") {
		t.Fatalf("decode of a record with an unknown field = %v, want an error naming it", err)
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	a := []Record{sidecarRecord("x", 0), sidecarRecord("y", 1)}
	b := []Record{sidecarRecord("y", 1), sidecarRecord("x", 0)}
	if DigestRecords(a) != DigestRecords(b) {
		t.Fatal("digest depends on record order")
	}
	c := []Record{sidecarRecord("x", 0), sidecarRecord("z", 1)}
	if DigestRecords(a) == DigestRecords(c) {
		t.Fatal("digest blind to content change")
	}
}
