package store_test

import (
	"bytes"
	"testing"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/routing"
	"smart/internal/store"
)

// TestRoundTripEveryRoutingCase is the store's property test over the
// canonical case table: for every routing discipline the repo ships, a
// real run's record survives Put → reopen → Get digest-identically.
// Records come from actual simulations (not fabricated fixtures), so
// any digested field the store failed to persist — or failed to
// canonicalize symmetrically — fails the comparison.
func TestRoundTripEveryRoutingCase(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cases := routing.Cases()
	want := map[string]string{} // fingerprint -> canonical digest
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			cfg := core.Config{
				Network:   core.NetworkKind(tc.Family),
				Algorithm: tc.Algorithm,
				K:         tc.K,
				N:         tc.N,
				VCs:       tc.VCs,
				Load:      0.2,
				Seed:      11,
				Warmup:    100,
				Horizon:   400,
			}
			var manifest bytes.Buffer
			if _, err := core.RunWith(cfg, core.Options{
				Store:    st,
				Manifest: obs.NewManifestWriter(&manifest),
				Batch:    "cases",
				Index:    3, // position must not leak into the store
			}); err != nil {
				t.Fatal(err)
			}
			recs, err := obs.DecodeManifest(&manifest)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 {
				t.Fatalf("%d manifest records, want 1", len(recs))
			}
			canon := store.Canonical(recs[0])
			fp := recs[0].Fingerprint
			want[fp] = obs.Digest([]obs.RunRecord{canon})

			rec, digest, ok, err := st.Get(fp)
			if err != nil || !ok {
				t.Fatalf("Get(%s): ok=%v err=%v", fp, ok, err)
			}
			if digest != want[fp] {
				t.Fatalf("stored digest %s != canonical digest %s", digest, want[fp])
			}
			if got := obs.Digest([]obs.RunRecord{rec}); got != want[fp] {
				t.Fatalf("returned record recomputes to %s, want %s", got, want[fp])
			}
		})
	}
	if st.Len() != len(cases) {
		t.Fatalf("store holds %d records for %d cases", st.Len(), len(cases))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every case must still be present and digest-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, fp := range st2.Fingerprints() {
		rec, digest, ok, err := st2.Get(fp)
		if err != nil || !ok {
			t.Fatalf("reopened Get(%s): ok=%v err=%v", fp, ok, err)
		}
		if digest != want[fp] {
			t.Fatalf("reopened digest for %s = %s, want %s", fp, digest, want[fp])
		}
		if got := obs.Digest([]obs.RunRecord{rec}); got != want[fp] {
			t.Fatalf("reopened record %s recomputes to %s, want %s", fp, got, want[fp])
		}
	}
}
