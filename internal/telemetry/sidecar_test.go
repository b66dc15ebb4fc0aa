package telemetry

import "testing"

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
