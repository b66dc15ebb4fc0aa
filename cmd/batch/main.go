// Command batch runs a declarative JSON study: a named list of
// configurations, each a core.Config with unset fields taking the paper's
// defaults. Results are printed as a table and optionally dumped as CSV.
//
//	batch -config study.json [-csv results.csv] [-workers 4]
//	batch -scaffold > study.json    # emit a template to start from
//
// Observability (internal/obs): -v adds structured run logs, a live
// progress line and a final per-stage engine timing report on stderr;
// -manifest appends one JSONL record per configuration; and
// -cpuprofile/-memprofile/-trace feed go tool pprof/trace.
//
// Resilience (internal/resilience, internal/cli): a failing or
// panicking config no longer aborts the study — every failure is
// reported at the end; -checkpoint keeps completed configs in a result
// store directory, Ctrl-C flushes it and the partial manifest, -resume
// replays the stored configs on the next invocation, and -watchdog
// aborts deadlocked configs with a stall diagnosis (configs that set
// WatchdogCycles keep their own budget).
//
// Caching (internal/store): -store points at a content-addressed
// result store shared with cmd/sweep and cmd/serve; configs the store
// holds are replayed instead of re-run, and completed runs are
// written back.
//
// Telemetry (internal/telemetry): -metrics-addr serves live fabric
// state over HTTP while the study runs; -timeseries writes each
// config's sampled time series and congestion events to a JSONL
// sidecar; -sample-every sets the cadence.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/faults"
	"smart/internal/results"
	"smart/internal/traffic"
)

func main() {
	flags := cli.AddFlags(flag.CommandLine)
	configPath := flag.String("config", "", "path to the JSON batch description")
	csvPath := flag.String("csv", "", "also write results as CSV")
	flag.StringVar(&flags.Manifest, "manifest", "", "append one JSONL run record per configuration to this file")
	flag.StringVar(&flags.Store, "store", "", "read-through result store directory: cached configs are replayed instead of re-run, and completed runs are written back")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulations")
	scaffold := flag.Bool("scaffold", false, "print a template batch file and exit")
	faultsFlag := flag.String("faults", "", "fault schedule (spec or smart/faults/v1 JSONL file) for configs that set none")
	burstFlag := flag.String("burst", "", "bursty injection (mmpp:<dwellOn>:<dwellOff>:<peak>) for configs that set none")
	flag.Parse()

	if *scaffold {
		template := core.Batch{
			Name: "example-study",
			Configs: []core.Config{
				{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, Pattern: core.PatternUniform, Load: 0.5},
				{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, Pattern: core.PatternUniform, Load: 0.5},
			},
		}
		if err := core.EncodeBatch(os.Stdout, template); err != nil {
			fmt.Fprintln(os.Stderr, "batch:", err)
			os.Exit(1)
		}
		return
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "batch: -config is required (or -scaffold for a template)")
		os.Exit(2)
	}
	file, err := os.Open(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}
	b, err := core.DecodeBatch(file)
	file.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}
	faultsSpec, err := faults.ResolveFlag(*faultsFlag)
	if err == nil {
		err = traffic.CheckBurst(*burstFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}
	for i := range b.Configs {
		if b.Configs[i].WatchdogCycles == 0 {
			b.Configs[i].WatchdogCycles = flags.Watchdog
		}
		if b.Configs[i].Faults == "" {
			b.Configs[i].Faults = faultsSpec
		}
		if b.Configs[i].Burst == "" {
			b.Configs[i].Burst = *burstFlag
		}
	}

	sess, err := flags.Open("batch", len(b.Configs), 2*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}
	res, err := b.RunWith(*workers, sess.Options)
	if err := sess.Close(err); err != nil {
		os.Exit(1)
	}

	fmt.Printf("batch %q: %d simulations\n\n", b.Name, len(res))
	headers := []string{"configuration", "pattern", "offered", "accepted", "latency cycles", "latency ns", "bits/ns"}
	rows := make([][]string, len(res))
	for i, r := range res {
		rows[i] = []string{
			r.Config.Label(),
			r.Config.Pattern,
			fmt.Sprintf("%.3f", r.Sample.Offered),
			fmt.Sprintf("%.4f", r.Sample.Accepted),
			fmt.Sprintf("%.1f", r.Sample.AvgLatency),
			fmt.Sprintf("%.0f", r.LatencyNS),
			fmt.Sprintf("%.1f", r.AcceptedBitsNS),
		}
	}
	fmt.Print(results.FormatTable(headers, rows))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			sess.Fatal(err)
		}
		defer f.Close()
		if err := results.WriteCSV(f, headers, rows); err != nil {
			sess.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	if flags.Manifest != "" {
		fmt.Printf("\nrun manifest written to %s\n", flags.Manifest)
	}
	if flags.Timeseries != "" {
		fmt.Printf("\ntime series written to %s\n", flags.Timeseries)
	}
}
