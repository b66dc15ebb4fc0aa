package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportGolden pins netsim's stdout, byte for byte, for two short
// runs: a tree with the channel-utilization table, and a faulted cube
// on two fabric shards with the fault summary and reroute count.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"tree_util.golden", []string{"-net", "tree", "-k", "4", "-n", "3", "-vcs", "2", "-pattern", "uniform",
			"-load", "0.5", "-seed", "3", "-warmup", "300", "-horizon", "1500", "-util"}},
		{"cube_faults_shards2.golden", []string{"-net", "cube", "-k", "4", "-n", "2", "-alg", "duato", "-vcs", "4",
			"-pattern", "uniform", "-load", "0.4", "-seed", "9", "-warmup", "300", "-horizon", "2000",
			"-faults", "rand-links:3@400-1500,router:5@600-1200", "-shards", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestRejectsNonPositiveSampleEvery: a cadence of zero or less is a
// usage error naming the flag, not a silent fallback to the default.
func TestRejectsNonPositiveSampleEvery(t *testing.T) {
	for _, every := range []string{"0", "-5"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-sample-every", every, "-warmup", "10", "-horizon", "20"}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "-sample-every") {
			t.Fatalf("-sample-every %s: exit %d, stderr %q; want exit 1 naming the flag", every, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("-sample-every %s printed a report:\n%s", every, stdout.String())
		}
	}
}

// TestHasNoGridFlags: a single run takes no checkpoint, store, manifest
// or watchdog flag.
func TestHasNoGridFlags(t *testing.T) {
	for _, name := range []string{"-checkpoint", "-resume", "-watchdog", "-manifest", "-store"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{name, "x"}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (flag not defined)", name, code)
		}
	}
}
