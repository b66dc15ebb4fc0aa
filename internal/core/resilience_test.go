package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
)

func TestRunAllIsolatesPanics(t *testing.T) {
	results, errs := runAll(nil, 3, 2, func(i int) (Result, error) {
		if i == 1 {
			panic(fmt.Sprintf("config %d is pathological", i))
		}
		return Result{Sample: Sample1()}, nil
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy runs failed: %v, %v", errs[0], errs[2])
	}
	if results[0].Sample != Sample1() || results[2].Sample != Sample1() {
		t.Fatal("healthy runs lost their results")
	}
	var pe *resilience.PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("panicking run produced %v, want *resilience.PanicError", errs[1])
	}
	if pe.Value != "config 1 is pathological" || len(pe.Stack) == 0 {
		t.Fatalf("panic capture incomplete: %+v", pe)
	}
}

func TestBatchCollectsEveryFailure(t *testing.T) {
	bad := Config{Network: NetworkTree, Algorithm: AlgDuato} // duato is undefined on the tree
	badCube := Config{Network: NetworkCube, Algorithm: AlgAdaptive}
	b := Batch{Name: "lossy", Configs: []Config{bad, smallCfg(), badCube}}
	var manifest bytes.Buffer
	res, err := b.RunWith(2, Options{Manifest: obs.NewManifestWriter(&manifest)})
	if err == nil {
		t.Fatal("batch with two invalid configs reported success")
	}
	// Both failures must appear in the joined error, not just the first.
	for _, want := range []string{"config 0", "config 2", bad.Fingerprint(), badCube.Fingerprint()} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q:\n%v", want, err)
		}
	}
	// The healthy config still ran to completion.
	if len(res) != 3 || res[1].Sample.Accepted <= 0 {
		t.Fatalf("healthy config did not survive its neighbors: %+v", res)
	}
	recs, derr := obs.DecodeManifest(&manifest)
	if derr != nil {
		t.Fatal(derr)
	}
	completed, failed := 0, 0
	for _, rec := range recs {
		if rec.Failure != "" {
			failed++
			if rec.Schema != obs.RunSchema {
				t.Fatalf("failure record carries schema %q", rec.Schema)
			}
		} else {
			completed++
		}
	}
	if completed != 1 || failed != 2 {
		t.Fatalf("manifest holds %d completed and %d failed records, want 1 and 2", completed, failed)
	}
}

func TestSweepSkipsRunsAfterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var manifest bytes.Buffer
	_, err := SweepWith(smallCfg(), []float64{0.1, 0.2}, 2, Options{
		Context:  ctx,
		Manifest: obs.NewManifestWriter(&manifest),
	})
	if err == nil || !strings.Contains(err.Error(), "not started") || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep = %v, want not-started context errors", err)
	}
	// Interrupted runs are not failures: the manifest stays clean so a
	// resumed invocation's records are the only ones.
	recs, derr := obs.DecodeManifest(&manifest)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(recs) != 0 {
		t.Fatalf("cancelled runs wrote %d manifest records", len(recs))
	}
}

// TestRunWithReplaysCheckpointedRun checks the resume half of the
// kill-and-resume contract at the run level: a config the -checkpoint
// store holds is replayed, not re-run, and its manifest record is
// re-emitted verbatim (same wall time).
func TestRunWithReplaysCheckpointedRun(t *testing.T) {
	st := openStore(t, t.TempDir())
	var first bytes.Buffer
	res1, err := RunWith(smallCfg(), Options{
		Store:    st,
		Manifest: obs.NewManifestWriter(&first),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d runs", st.Len())
	}
	var second bytes.Buffer
	res2, err := RunWith(smallCfg(), Options{
		Store:    st,
		Manifest: obs.NewManifestWriter(&second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Sample != res2.Sample || res1.AcceptedBitsNS != res2.AcceptedBitsNS || res1.LatencyNS != res2.LatencyNS {
		t.Fatalf("replayed result diverges:\nran      %+v\nreplayed %+v", res1, res2)
	}
	if first.String() != second.String() {
		t.Fatalf("replayed manifest record is not verbatim:\nran      %s\nreplayed %s", first.String(), second.String())
	}
}

// tearActiveSegment simulates a kill mid-append: half an entry with no
// trailing newline at the end of the store's active segment.
func tearActiveSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no store segments in %s (%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"schema":"smart/store/v1","fingerprint":"torn`); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptedSweepResumesToIdenticalManifest(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	base := smallCfg()
	opts := func(extra Options) Options {
		extra.Batch = "resume-test"
		return extra
	}

	// Reference: the uninterrupted sweep.
	var refManifest bytes.Buffer
	refResults, err := SweepWith(base, loads, 2, opts(Options{Manifest: obs.NewManifestWriter(&refManifest)}))
	if err != nil {
		t.Fatal(err)
	}
	refRecs, err := obs.DecodeManifest(bytes.NewReader(refManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	refDigest := obs.Digest(refRecs)

	// Interrupted: only the first half of the grid reaches the store,
	// and the kill tears the final line mid-write.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepWith(base, loads[:2], 2, opts(Options{Store: st})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tearActiveSegment(t, dir)

	// Resumed: the full grid against the interrupted store.
	resumed := openStore(t, dir)
	if resumed.Len() != 2 {
		t.Fatalf("resumed store sees %d completed runs, want 2", resumed.Len())
	}
	var resManifest bytes.Buffer
	resResults, err := SweepWith(base, loads, 2, opts(Options{
		Store:    resumed,
		Manifest: obs.NewManifestWriter(&resManifest),
	}))
	if err != nil {
		t.Fatal(err)
	}

	for i := range refResults {
		if refResults[i].Sample != resResults[i].Sample {
			t.Fatalf("load %g: resumed sample diverges from reference", loads[i])
		}
	}
	resRecs, err := obs.DecodeManifest(bytes.NewReader(resManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Digest(resRecs); d != refDigest {
		t.Fatalf("resumed manifest digest %s != reference %s", d, refDigest)
	}
}

func TestResultFromRecordRejectsMismatches(t *testing.T) {
	var manifest bytes.Buffer
	if _, err := RunWith(smallCfg(), Options{Manifest: obs.NewManifestWriter(&manifest)}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]

	bad := rec
	bad.Failure = "panic: boom"
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("failure record rebuilt into a Result")
	}
	bad = rec
	bad.Fingerprint = "0000000000000000"
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("fingerprint mismatch went unnoticed")
	}
	bad = rec
	bad.Config = []byte(`{`)
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("unparsable embedded config went unnoticed")
	}
}
