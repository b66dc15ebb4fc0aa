package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// parseFlags registers the shared flags plus -manifest and -store, as
// cmd/sweep does, parses args, and captures the session's stderr.
func parseFlags(t *testing.T, args ...string) (*Flags, *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	fs.StringVar(&f.Manifest, "manifest", "", "")
	fs.StringVar(&f.Store, "store", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	f.stderr = &stderr
	return f, &stderr
}

func open(t *testing.T, args ...string) (*Session, *bytes.Buffer) {
	t.Helper()
	f, stderr := parseFlags(t, args...)
	s, err := f.Open("test", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, stderr
}

func smallCfg() core.Config {
	return core.Config{
		Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, K: 4, N: 2,
		Pattern: core.PatternUniform, Seed: 3, Warmup: 300, Horizon: 1500,
	}
}

var loads = []float64{0.1, 0.2, 0.3, 0.4}

func readManifest(t *testing.T, path string) []obs.RunRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.DecodeManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// uncachedDigest is the manifest digest of the grid run with no store.
func uncachedDigest(t *testing.T, grid func(core.Options) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := grid(core.Options{Manifest: obs.NewManifestWriter(&buf)}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return obs.Digest(recs)
}

func TestAddFlagsDefaults(t *testing.T) {
	f, _ := parseFlags(t)
	if f.Watchdog != resilience.DefaultWatchdogCycles || f.Checkpoint != "" || f.Resume || f.Shards != 1 {
		t.Fatalf("defaults = %+v", f)
	}
	f, _ = parseFlags(t, "-checkpoint", "grid.ckpt", "-resume", "-watchdog", "500", "-shards", "0")
	if f.Checkpoint != "grid.ckpt" || !f.Resume || f.Watchdog != 500 || f.Shards != 0 {
		t.Fatalf("parsed = %+v", f)
	}
}

func TestFlagsOpenValidation(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "old.jsonl")
	if err := os.WriteFile(journal, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.ckpt")
	st, err := store.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunWith(smallCfg(), core.Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-resume"}, "-resume requires -checkpoint"},
		{[]string{"-checkpoint", filepath.Join(dir, "a"), "-store", filepath.Join(dir, "b")}, "mutually exclusive"},
		{[]string{"-checkpoint", journal}, "now a result store directory"},
		{[]string{"-checkpoint", journal, "-resume"}, "now a result store directory"},
		{[]string{"-checkpoint", full}, "already holds 1 results; pass -resume"},
	} {
		f, _ := parseFlags(t, tc.args...)
		if s, err := f.Open("test", 1, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			if s != nil {
				s.Close(nil)
			}
			t.Fatalf("Open(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// Refusals touch nothing: the journal keeps its bytes and the
	// checkpoint store its results.
	if data, err := os.ReadFile(journal); err != nil || string(data) != "{}\n" {
		t.Fatalf("refused journal changed: %q, %v", data, err)
	}
	s, _ := open(t, "-checkpoint", full, "-resume")
	if n := s.Options.Store.Len(); n != 1 {
		t.Fatalf("refused checkpoint holds %d results, want 1", n)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}

	// No flags: nothing to open, nothing to close.
	s, _ = open(t)
	o := s.Options
	if o.Store != nil || o.Manifest != nil || o.Telemetry != nil || o.Progress != nil || o.Profiler != nil || o.Logger != nil {
		t.Fatalf("flagless session attached observers: %+v", o)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeReplaysCompletedRuns interrupts a checkpointed
// sweep after half its grid, resumes it, and requires the resumed run
// to replay exactly the stored half and digest like an uncached sweep.
func TestCheckpointResumeReplaysCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	manifest := filepath.Join(dir, "resumed.jsonl")

	s, _ := open(t, "-checkpoint", ckpt)
	if _, err := core.SweepWith(smallCfg(), loads[:2], 2, s.Options); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}

	s, stderr := open(t, "-checkpoint", ckpt, "-resume", "-manifest", manifest)
	if !strings.Contains(stderr.String(), "resuming past 2 checkpointed runs") {
		t.Fatalf("resume not announced:\n%s", stderr)
	}
	var logs bytes.Buffer
	s.Options.Logger = obs.NewLogger(&logs, obs.FormatJSON)
	if _, err := core.SweepWith(smallCfg(), loads, 2, s.Options); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logs.String(), `"msg":"run replayed from cache"`); n != 2 {
		t.Fatalf("%d runs replayed, want the 2 checkpointed ones:\n%s", n, logs.String())
	}
	if n := strings.Count(logs.String(), `"msg":"run complete"`); n != 2 {
		t.Fatalf("%d runs simulated, want the 2 missing ones:\n%s", n, logs.String())
	}
	want := uncachedDigest(t, func(o core.Options) error {
		_, err := core.SweepWith(smallCfg(), loads, 2, o)
		return err
	})
	if got := obs.Digest(readManifest(t, manifest)); got != want {
		t.Fatalf("resumed manifest digest %s != uncached %s", got, want)
	}
}

// TestCheckpointRestampsDuplicateFingerprints is the regression test for
// a grid that visits one fingerprint twice: the second visit is a
// checkpoint hit, and its manifest record must carry its own position,
// not that of the run that stored it.
func TestCheckpointRestampsDuplicateFingerprints(t *testing.T) {
	b := core.Batch{Name: "dup", Configs: []core.Config{smallCfg(), smallCfg()}}
	manifest := filepath.Join(t.TempDir(), "m.jsonl")
	s, _ := open(t, "-checkpoint", filepath.Join(t.TempDir(), "c"), "-manifest", manifest)
	if _, err := b.RunWith(1, s.Options); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	recs := readManifest(t, manifest)
	if len(recs) != 2 || recs[0].Index == recs[1].Index {
		t.Fatalf("manifest records %+v, want indexes 0 and 1", recs)
	}
	want := uncachedDigest(t, func(o core.Options) error {
		_, err := b.RunWith(1, o)
		return err
	})
	if got := obs.Digest(recs); got != want {
		t.Fatalf("checkpointed digest %s != uncached %s", got, want)
	}
}

func TestCloseSyncsStoreAndSidecar(t *testing.T) {
	dir := t.TempDir()
	sidecar := filepath.Join(dir, "series.jsonl")
	s, stderr := open(t, "-checkpoint", filepath.Join(dir, "c"), "-timeseries", sidecar, "-manifest", filepath.Join(dir, "m.jsonl"))
	if _, err := core.SweepWith(smallCfg(), loads, 2, s.Options); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "-resume") {
		t.Fatalf("successful grid printed the resume hint:\n%s", stderr)
	}
	rec := readManifest(t, filepath.Join(dir, "m.jsonl"))[0]
	if _, err := s.Options.Store.Put(rec); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("store still open after Close: %v", err)
	}
	if err := s.Options.Telemetry.Sidecar.Write(telemetry.Record{RunInfo: telemetry.RunInfo{Fingerprint: "x"}}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("sidecar still open after Close: %v", err)
	}
	st, err := store.Open(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(loads) {
		t.Fatalf("reopened checkpoint holds %d runs, want %d", st.Len(), len(loads))
	}
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if series, err := telemetry.DecodeSidecar(data); err != nil || len(series) != len(loads) {
		t.Fatalf("sidecar holds %d series (%v), want %d", len(series), err, len(loads))
	}
}

func TestCloseHintsResumeOnlyForFailedCheckpointedGrid(t *testing.T) {
	boom := errors.New("boom")
	s, stderr := open(t, "-checkpoint", filepath.Join(t.TempDir(), "c"))
	if err := s.Close(boom); !errors.Is(err, boom) {
		t.Fatalf("Close(boom) = %v", err)
	}
	if out := stderr.String(); !strings.Contains(out, "test: boom") || !strings.Contains(out, "holds 0 completed runs; rerun with -resume to continue") {
		t.Fatalf("failed checkpointed grid printed:\n%s", out)
	}

	s, stderr = open(t)
	if err := s.Close(boom); !errors.Is(err, boom) {
		t.Fatalf("Close(boom) = %v", err)
	}
	if out := stderr.String(); !strings.Contains(out, "test: boom") || strings.Contains(out, "-resume") {
		t.Fatalf("failed grid without -checkpoint printed:\n%s", out)
	}
}
