package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/results"
)

// A study is one section of the report: a heading, prose, the cases it
// sweeps over the grid's loads, and the tables it prints from their
// results.
type study struct {
	title  string
	prose  []string
	cases  []studyCase
	tables []table
}

// A studyCase is one configuration swept over the grid's loads. batch
// stamps its runs in the manifest and names its sweep in the grid:
// cases that share a batch share one sweep, which runs once.
type studyCase struct {
	label string
	batch string
	cfg   core.Config
}

// A table prints either one metric of every case against offered load
// (a series table, one column per case) or, when row is set, one row
// per case under headers (a summary table). An empty caption or csv
// prints no caption or writes no CSV file.
type table struct {
	caption string
	csv     string
	metric  func(core.Result) float64
	headers []string
	row     func(c studyCase, swept []core.Result) []string
}

// The metrics the series tables plot.
var (
	accepted  = func(r core.Result) float64 { return r.Sample.Accepted }
	latency   = func(r core.Result) float64 { return r.Sample.AvgLatency }
	bitsNS    = func(r core.Result) float64 { return r.AcceptedBitsNS }
	latencyNS = func(r core.Result) float64 { return r.LatencyNS }
)

// gridRuns lists every run the studies need: each batch's sweep once,
// in the order the studies first use it, with Index the load's position
// in the sweep.
func gridRuns(studies []study, loads []float64) []core.GridRun {
	seen := map[string]bool{}
	var runs []core.GridRun
	for _, s := range studies {
		for _, c := range s.cases {
			if seen[c.batch] {
				continue
			}
			seen[c.batch] = true
			for i, load := range loads {
				cfg := c.cfg
				cfg.Load = load
				runs = append(runs, core.GridRun{Config: cfg, Batch: c.batch, Index: i})
			}
		}
	}
	return runs
}

// openGrid enumerates the studies' runs and opens the session that runs
// them, its progress line sized to the whole grid.
func openGrid(flags *cli.Flags, studies []study, loads []float64) ([]core.GridRun, *cli.Session, error) {
	runs := gridRuns(studies, loads)
	sess, err := flags.Open("experiments", len(runs), 5*time.Second)
	return runs, sess, err
}

// sweepsByBatch regroups the grid's results into one sweep per batch,
// ordered by load.
func sweepsByBatch(runs []core.GridRun, res []core.Result) map[string][]core.Result {
	sweeps := map[string][]core.Result{}
	for i, r := range runs {
		sweeps[r.Batch] = append(sweeps[r.Batch], res[i])
	}
	return sweeps
}

// render prints the study from its cases' sweeps and writes its CSV
// files into csvDir ("" writes none).
func (s study) render(w io.Writer, sweeps map[string][]core.Result, csvDir string) error {
	fmt.Fprintf(w, "== %s ==\n\n", s.title)
	if len(s.prose) > 0 {
		for _, line := range s.prose {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
	}
	labels := make([]string, len(s.cases))
	swept := make([][]core.Result, len(s.cases))
	for i, c := range s.cases {
		labels[i], swept[i] = c.label, sweeps[c.batch]
	}
	for _, t := range s.tables {
		headers, rows := t.headers, [][]string(nil)
		if t.row != nil {
			for i, c := range s.cases {
				rows = append(rows, t.row(c, swept[i]))
			}
		} else {
			var err error
			if headers, rows, err = results.MultiSeries(labels, swept, t.metric, "offered"); err != nil {
				return err
			}
		}
		if t.caption != "" {
			fmt.Fprintln(w, t.caption+":")
		}
		fmt.Fprint(w, results.FormatTable(headers, rows))
		if err := writeCSV(csvDir, t.csv, headers, rows); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

// saturation summarizes a case's sweep: its saturation point as a
// fraction of capacity, prefixed ">" when the sweep never saturated,
// and the summary row behind it.
func saturation(swept []core.Result) (string, results.SummaryRow) {
	row := results.Summarize("", swept, 0.02)
	sat := fmt.Sprintf("%.2f", row.SaturationFrac)
	if !row.Saturated {
		sat = ">" + sat
	}
	return sat, row
}

func writeCSV(dir, name string, headers []string, rows [][]string) error {
	if dir == "" || name == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := results.WriteCSV(f, headers, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
