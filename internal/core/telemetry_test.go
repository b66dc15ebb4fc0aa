package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smart/internal/sim"
	"smart/internal/store"
	"smart/internal/telemetry"
)

func telemetryTestConfig() Config {
	return Config{
		Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2,
		K: 4, N: 2, Pattern: PatternUniform, Load: 0.4, Seed: 7,
		Warmup: 300, Horizon: 1500,
	}
}

// TestTelemetryDoesNotChangeBehavior is the observation-only contract:
// the same config run bare and run under a full telemetry harness must
// produce bit-identical simulated state — same measurement sample, same
// counters, same end-of-run state hash. This is the golden-fixture
// guarantee restated against the telemetry path specifically.
func TestTelemetryDoesNotChangeBehavior(t *testing.T) {
	cfg := telemetryTestConfig()

	bare, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bareRes, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}

	sc, err := telemetry.OpenSidecar(filepath.Join(t.TempDir(), "series.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	instr, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instrRes, err := instr.RunWith(Options{Telemetry: &telemetry.Options{
		Server:  telemetry.NewServer(),
		Sidecar: sc,
		Every:   100,
	}})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bareRes.Sample, instrRes.Sample) {
		t.Fatalf("telemetry changed the measurement sample:\nbare  %+v\ninstr %+v", bareRes.Sample, instrRes.Sample)
	}
	if bare.Fabric.Counters() != instr.Fabric.Counters() {
		t.Fatalf("telemetry changed the counters:\nbare  %+v\ninstr %+v", bare.Fabric.Counters(), instr.Fabric.Counters())
	}
	b, i := bare.Fabric.Observe(), instr.Fabric.Observe()
	if b.StateHash != i.StateHash {
		t.Fatalf("telemetry changed end-of-run fabric state: hash %x != %x", b.StateHash, i.StateHash)
	}
}

// TestTelemetryDisabledAddsNoStage is the structural half of the
// overhead guard: with no telemetry attached, RunWith must not register
// any extra engine stage — the uninstrumented path stays the
// uninstrumented path (the wall-clock half is BenchmarkUniform vs
// BenchmarkUniformTelemetry in the repo root).
func TestTelemetryDisabledAddsNoStage(t *testing.T) {
	s, err := NewSimulation(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := stageCount(s.Engine)
	if _, err := s.RunWith(Options{}); err != nil {
		t.Fatal(err)
	}
	if got := stageCount(s.Engine); got != before {
		t.Fatalf("zero Options registered %d extra stages", got-before)
	}

	s2, err := NewSimulation(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	before = stageCount(s2.Engine)
	if _, err := s2.RunWith(Options{Telemetry: &telemetry.Options{}}); err != nil {
		t.Fatal(err)
	}
	if got := stageCount(s2.Engine); got != before+1 {
		t.Fatalf("telemetry registered %d extra stages, want exactly 1 (the sampler)", got-before)
	}
}

// stageCount counts the engine's registered stages.
func stageCount(e *sim.Engine) int {
	n := 0
	e.Instrument(func(sim.Stage) sim.Stage { n++; return nil })
	return n
}

// readSidecar decodes a finished sidecar file.
func readSidecar(t *testing.T, path string) []telemetry.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeSidecar(data)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestResumedRunDoesNotDuplicateSidecar checks the resume contract end
// to end at the run level: a config the -checkpoint store holds is
// replayed and never re-runs, the resumed invocation rewrites the
// sidecar from scratch, and the series it writes is the stored one —
// exactly once, digesting equal to the original.
func TestResumedRunDoesNotDuplicateSidecar(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "runs.ckpt")
	scPath := filepath.Join(dir, "series.jsonl")
	cfg := telemetryTestConfig()

	st, err := store.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.OpenSidecar(scPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(cfg, Options{Store: st, Telemetry: &telemetry.Options{Sidecar: sc}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	original := readSidecar(t, scPath)

	sc, err = telemetry.OpenSidecar(scPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	resumed := openStore(t, ckptDir)
	before := resumed.Stats().Bytes
	if _, err := RunWith(cfg, Options{Store: resumed, Telemetry: &telemetry.Options{Sidecar: sc}}); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Stats().Bytes; got != before {
		t.Fatalf("replayed run wrote to the store: %d -> %d bytes", before, got)
	}

	recs := readSidecar(t, scPath)
	if len(recs) != 1 {
		t.Fatalf("resumed sidecar holds %d records, want exactly 1", len(recs))
	}
	if recs[0].Fingerprint != cfg.WithDefaults().Fingerprint() {
		t.Fatalf("record fingerprint %s != config fingerprint %s", recs[0].Fingerprint, cfg.WithDefaults().Fingerprint())
	}
	if got, want := telemetry.DigestRecords(recs), telemetry.DigestRecords(original); got != want {
		t.Fatalf("replayed series digests %s, original %s", got, want)
	}
}

// TestRepeatedConfigKeepsEverySeries: a grid that runs one config twice
// gets two series, one per position, and the sidecar digests the same
// however the parallel runs finish.
func TestRepeatedConfigKeepsEverySeries(t *testing.T) {
	cfg := telemetryTestConfig()
	b := Batch{Name: "twice", Configs: []Config{cfg, cfg}}
	want := ""
	for rep := 0; rep < 20; rep++ {
		path := filepath.Join(t.TempDir(), "series.jsonl")
		sc, err := telemetry.OpenSidecar(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.RunWith(2, Options{Telemetry: &telemetry.Options{Sidecar: sc, Every: 100}}); err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		recs := readSidecar(t, path)
		if len(recs) != 2 || recs[0].Index == recs[1].Index {
			t.Fatalf("repetition %d: sidecar holds %d series, want one at Index 0 and one at Index 1", rep, len(recs))
		}
		d := telemetry.DigestRecords(recs)
		if want == "" {
			want = d
		}
		if d != want {
			t.Fatalf("repetition %d: sidecar digests %s, first repetition %s", rep, d, want)
		}
	}
}
