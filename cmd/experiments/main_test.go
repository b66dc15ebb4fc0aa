package main

import (
	"flag"
	"testing"

	"smart/internal/cli"
	"smart/internal/core"
)

// quickPlan declares every study of `experiments -quick -degraded
// -ablations`, in report order, with the quick grid's loads.
func quickPlan() ([]study, []float64) {
	var loads []float64
	for l := 0.10; l <= 1.0001; l += 0.10 {
		loads = append(loads, l)
	}
	studies := paperStudies(1, 1000, 8000, 0, "", "")
	studies = append(studies, degradedStudy(1, 1000, 8000))
	return append(studies, ablationStudies(1, 1000, 8000)...), loads
}

func TestEveryStudyCaseAssembles(t *testing.T) {
	studies, loads := quickPlan()
	batches := map[string]string{}
	for _, s := range studies {
		for _, c := range s.cases {
			cfg := c.cfg
			cfg.Load = loads[len(loads)-1]
			if _, err := core.NewSimulation(cfg); err != nil {
				t.Errorf("%s / %s: %v", s.title, c.label, err)
			}
			// Cases sharing a batch share one sweep, so they must
			// sweep the same configuration.
			fp := c.cfg.Fingerprint()
			if prev, ok := batches[c.batch]; ok && prev != fp {
				t.Errorf("batch %q holds two configurations", c.batch)
			}
			batches[c.batch] = fp
		}
	}
}

func TestCSVNamesUnique(t *testing.T) {
	studies, _ := quickPlan()
	seen := map[string]string{}
	for _, s := range studies {
		for _, tb := range s.tables {
			if tb.csv == "" {
				continue
			}
			if prev, ok := seen[tb.csv]; ok {
				t.Errorf("%s is written by both %q and %q", tb.csv, prev, s.title)
			}
			seen[tb.csv] = s.title
		}
	}
}

func TestGridRunsUniquelyStamped(t *testing.T) {
	studies, loads := quickPlan()
	type stamp struct {
		batch string
		index int
	}
	seen := map[stamp]bool{}
	for _, r := range gridRuns(studies, loads) {
		s := stamp{r.Batch, r.Index}
		if seen[s] {
			t.Fatalf("run %+v stamped twice", s)
		}
		seen[s] = true
		if r.Config.Load != loads[r.Index] {
			t.Fatalf("run %+v has load %v, want %v", s, r.Config.Load, loads[r.Index])
		}
	}
}

// TestGridSizeIsSessionTotal checks that the progress total the session
// reports is the whole grid — figures, degraded and ablations — with
// each shared sweep counted once.
func TestGridSizeIsSessionTotal(t *testing.T) {
	studies, loads := quickPlan()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags := cli.AddFlags(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	runs, sess, err := openGrid(flags, studies, loads)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(nil)
	// 20 paper sweeps, 8 degraded and 32 ablation sweeps.
	if want := 60 * len(loads); len(runs) != want {
		t.Fatalf("grid holds %d runs, want %d", len(runs), want)
	}
	if got := sess.Options.Progress.Snapshot().Total; got != int64(len(runs)) {
		t.Fatalf("session counts %d runs, grid holds %d", got, len(runs))
	}
}
