// Command telemetry inspects JSONL time-series sidecars written by the
// flight recorder (-timeseries on sweep/batch/experiments/netsim,
// schema smart/timeseries/v1).
//
//	telemetry series.jsonl                  # per-run summary table
//	telemetry -events series.jsonl          # congestion-event log
//	telemetry -plot -run 3 series.jsonl     # utilization/throughput over time
//	telemetry -digest a.jsonl b.jsonl       # canonical content digest per file
//	telemetry -check series.jsonl           # validate schema and invariants
//
// The digest is record-order-independent and the records carry no wall
// time, so a kill-and-resume sweep digests identically to an
// uninterrupted one — the sidecar's half of the resume contract, and
// what CI's telemetry smoke job compares.
package main

import (
	"flag"
	"fmt"
	"os"

	"smart/internal/analysis"
	"smart/internal/plot"
	"smart/internal/results"
	"smart/internal/telemetry"
)

func main() {
	digest := flag.Bool("digest", false, "print only the canonical content digest of each sidecar")
	check := flag.Bool("check", false, "validate schema and series invariants, print a one-line verdict")
	events := flag.Bool("events", false, "print each run's congestion-event log")
	doPlot := flag.Bool("plot", false, "render throughput and per-class utilization over time as ASCII charts")
	runIdx := flag.Int("run", -1, "with -plot/-events, select one record by position in the file (default: all)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "telemetry: at least one sidecar file is required")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		recs, err := telemetry.DecodeSidecar(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		switch {
		case *digest:
			fmt.Printf("%s  %s\n", telemetry.DigestRecords(recs), path)
		case *check:
			if err := checkRecords(recs); err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			fmt.Printf("%s: ok — %d records, digest %s\n", path, len(recs), telemetry.DigestRecords(recs))
		default:
			base := 0
			if *runIdx >= 0 {
				base = *runIdx
			}
			summarize(path, selectRecords(recs, *runIdx))
			if *events {
				printEvents(selectRecords(recs, *runIdx), base)
			}
			if *doPlot {
				plotRecords(selectRecords(recs, *runIdx), base)
			}
		}
	}
}

// selectRecords narrows to the -run selection (all records when -1).
func selectRecords(recs []telemetry.Record, idx int) []telemetry.Record {
	if idx < 0 {
		return recs
	}
	if idx >= len(recs) {
		fatal(fmt.Errorf("-run %d: file has %d records", idx, len(recs)))
	}
	return recs[idx : idx+1]
}

// checkRecords enforces the sidecar invariants a correct writer
// guarantees: each run (fingerprint at its batch position) recorded
// once, strictly increasing sample cycles, class slices sized
// consistently. A grid that repeats a config records it once per
// position.
func checkRecords(recs []telemetry.Record) error {
	type run struct {
		batch, fingerprint string
		index              int
	}
	seen := map[run]bool{}
	for i, rec := range recs {
		if rec.Fingerprint == "" {
			return fmt.Errorf("record %d has no fingerprint", i)
		}
		key := run{rec.Batch, rec.Fingerprint, rec.Index}
		if seen[key] {
			return fmt.Errorf("record %d duplicates run %s at %q index %d", i, rec.Fingerprint, rec.Batch, rec.Index)
		}
		seen[key] = true
		if rec.Every <= 0 {
			return fmt.Errorf("record %d has non-positive cadence %d", i, rec.Every)
		}
		if len(rec.ClassNames) != len(rec.ClassLinks) {
			return fmt.Errorf("record %d has %d class names but %d link counts", i, len(rec.ClassNames), len(rec.ClassLinks))
		}
		last := int64(0)
		for j, p := range rec.Points {
			if p.Cycle <= last {
				return fmt.Errorf("record %d sample %d: cycle %d not after %d", i, j, p.Cycle, last)
			}
			last = p.Cycle
			if len(p.ClassFlits) != len(rec.ClassNames) {
				return fmt.Errorf("record %d sample %d: %d class slots, want %d", i, j, len(p.ClassFlits), len(rec.ClassNames))
			}
		}
	}
	return nil
}

func summarize(path string, recs []telemetry.Record) {
	fmt.Printf("%s: %d runs, digest %s\n\n", path, len(recs), telemetry.DigestRecords(recs))
	headers := []string{"run", "configuration", "pattern", "load", "points", "events", "mean del/cyc", "peak in-flight", "peak queued", "hot class"}
	rows := make([][]string, 0, len(recs))
	for i, rec := range recs {
		s, err := analysis.Summarize(rec)
		if err != nil {
			fatal(err)
		}
		hot := "-"
		if s.HotClass != "" {
			hot = fmt.Sprintf("%s %.2f", s.HotClass, s.HotClassUtil)
		}
		status := rec.Label
		if rec.Failure != "" {
			status += " (FAILED)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			status,
			rec.Pattern,
			fmt.Sprintf("%.3f", rec.Load),
			fmt.Sprintf("%d", s.Points),
			fmt.Sprintf("%d", s.Events),
			fmt.Sprintf("%.2f", s.MeanDelivery),
			fmt.Sprintf("%d", s.PeakInFlight),
			fmt.Sprintf("%d", s.PeakQueued),
			hot,
		})
	}
	fmt.Print(results.FormatTable(headers, rows))
}

func printEvents(recs []telemetry.Record, base int) {
	for off, rec := range recs {
		i := base + off
		if len(rec.Events) == 0 {
			continue
		}
		fmt.Printf("\nrun %d (%s, %s, load %.3f) events:\n", i, rec.Label, rec.Pattern, rec.Load)
		for _, ev := range rec.Events {
			line := fmt.Sprintf("  cycle %-8d %-17s", ev.Cycle, ev.Kind)
			if ev.Class != "" {
				line += " " + ev.Class
			}
			if ev.Detail != "" {
				line += "  " + ev.Detail
			}
			fmt.Println(line)
		}
		if rec.DroppedEvents > 0 {
			fmt.Printf("  (+%d events dropped)\n", rec.DroppedEvents)
		}
	}
}

func plotRecords(recs []telemetry.Record, base int) {
	for off, rec := range recs {
		i := base + off
		rates, err := analysis.Rates(rec)
		if err != nil {
			fatal(err)
		}
		if len(rates) == 0 {
			continue
		}
		xs := make([]float64, len(rates))
		del := make([]float64, len(rates))
		inj := make([]float64, len(rates))
		for j, rp := range rates {
			xs[j] = float64(rp.Cycle)
			del[j] = rp.DeliveryRate
			inj[j] = rp.InjectionRate
		}
		charts := []plot.Chart{{
			Title:  fmt.Sprintf("run %d: flit rates over time (%s, %s, load %.3f)", i, rec.Label, rec.Pattern, rec.Load),
			XLabel: "cycle", YLabel: "flits/cycle", Width: 64, Height: 12,
			Series: []plot.Series{{Name: "delivered", X: xs, Y: del}, {Name: "injected", X: xs, Y: inj}},
		}}
		if len(rec.ClassNames) > 0 {
			util := plot.Chart{
				Title:  fmt.Sprintf("run %d: channel-class utilization over time", i),
				XLabel: "cycle", YLabel: "utilization", Width: 64, Height: 12,
			}
			for c, name := range rec.ClassNames {
				if rec.ClassLinks[c] == 0 {
					continue
				}
				ys := make([]float64, len(rates))
				for j, rp := range rates {
					if c < len(rp.ClassUtil) {
						ys[j] = rp.ClassUtil[c]
					}
				}
				util.Series = append(util.Series, plot.Series{Name: name, X: xs, Y: ys})
			}
			charts = append(charts, util)
		}
		for _, ch := range charts {
			rendered, err := ch.Render()
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			fmt.Print(rendered)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "telemetry:", err)
	os.Exit(1)
}
