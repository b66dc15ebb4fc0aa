// Command experiments reproduces the paper's complete evaluation: Tables
// 1 and 2 (router delays), Figures 5 and 6 (Chaos Normal Form curves of
// the 4-ary 4-tree and the 16-ary 2-cube under uniform, complement,
// transpose and bit-reversal traffic), Figure 7 (the absolute-unit
// comparison), and a paper-versus-measured scorecard of every saturation
// point the text quotes. With -ablations it also runs the extension
// studies (buffer depth, packet size, injection lanes, extra patterns).
//
// The full grid is 4 patterns x 5 configurations x 20 offered loads at
// the paper's 20000-cycle horizon; use -quick for a coarse preview.
//
// Output is a self-contained text report on stdout (tee it to a file);
// -csvdir additionally dumps every series as CSV for plotting.
//
// The grid takes the shared observability, telemetry and resilience
// flags of internal/cli. -checkpoint keeps every completed run in a
// result store directory as it finishes; after a kill or a failure,
// rerunning with -checkpoint and -resume replays the stored runs and
// simulates only the rest:
//
//	experiments -checkpoint grid.ckpt | tee report.txt
//	experiments -checkpoint grid.ckpt -resume | tee report.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/cost"
	"smart/internal/faults"
	"smart/internal/obs"
	"smart/internal/results"
	"smart/internal/traffic"
)

// sess is the open grid session; fatal closes it, so a failed grid
// still flushes its checkpoint and says how to resume.
var sess *cli.Session

// paperSaturation records the saturation points the paper's text quotes,
// as fractions of capacity, keyed by pattern then configuration label.
var paperSaturation = map[string]map[string]float64{
	"uniform":    {"cube deterministic": 0.60, "cube duato": 0.80, "tree adaptive-1vc": 0.36, "tree adaptive-2vc": 0.55, "tree adaptive-4vc": 0.72},
	"complement": {"cube deterministic": 0.47, "cube duato": 0.35, "tree adaptive-1vc": 0.95, "tree adaptive-2vc": 0.95, "tree adaptive-4vc": 0.95},
	"transpose":  {"cube deterministic": 0.24, "cube duato": 0.50, "tree adaptive-1vc": 0.33, "tree adaptive-2vc": 0.60, "tree adaptive-4vc": 0.78},
	"bitrev":     {"cube deterministic": 0.20, "cube duato": 0.60, "tree adaptive-1vc": 0.35, "tree adaptive-2vc": 0.60, "tree adaptive-4vc": 0.78},
}

var patterns = []string{"uniform", "complement", "transpose", "bitrev"}

func main() {
	flags := cli.AddFlags(flag.CommandLine)
	quick := flag.Bool("quick", false, "coarse grid and short horizon (preview quality)")
	ablate := flag.Bool("ablations", false, "also run the extension/ablation studies")
	degraded := flag.Bool("degraded", false, "also run the degraded-operation study (clean vs faulted vs bursty saturation)")
	faultsFlag := flag.String("faults", "", "fault schedule applied to every grid run (spec or smart/faults/v1 JSONL file); deterministic cube routing is fault-oblivious and may wedge — pair with -watchdog")
	burst := flag.String("burst", "", "bursty injection applied to every grid run (mmpp:<dwellOn>:<dwellOff>:<peak>)")
	seed := flag.Uint64("seed", 1, "random seed")
	csvDir := flag.String("csvdir", "", "write every series as CSV files into this directory")
	flag.StringVar(&flags.Manifest, "manifest", "", "append one JSONL run record per simulation to this file")
	flag.BoolVar(&flags.SelfCheck, "selfcheck", false, "shadow every run with the reference oracle simulator in lockstep (slow; fails at the first divergent cycle)")
	flag.Parse()

	step := 0.05
	var warmup, horizon int64 // 0 = paper defaults
	if *quick {
		step = 0.10
		warmup, horizon = 1000, 8000
	}
	var loads []float64
	for l := step; l <= 1.0001; l += step {
		loads = append(loads, l)
	}
	configs := core.PaperConfigs()
	faultsSpec, err := faults.ResolveFlag(*faultsFlag)
	if err == nil {
		err = traffic.CheckBurst(*burst)
	}
	if err == nil {
		sess, err = flags.Open("experiments", len(patterns)*len(configs)*len(loads), 5*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	elapsed := obs.Stopwatch()
	fmt.Println("SMART reproduction of: Petrini & Vanneschi, \"Network Performance under")
	fmt.Println("Physical Constraints\", ICPP 1997")
	fmt.Printf("grid: %d loads (step %.2f), seed %d", len(loads), step, *seed)
	if *quick {
		fmt.Print(", QUICK preview (warm-up 1000, horizon 8000)")
	} else {
		fmt.Print(", paper methodology (warm-up 2000, horizon 20000)")
	}
	fmt.Println()
	if faultsSpec != "" || *burst != "" {
		fmt.Printf("DEGRADED grid: faults=%q burst=%q (paper columns assume a clean fabric)\n", faultsSpec, *burst)
	}
	fmt.Println()

	// ---- Tables 1 and 2 ----
	fmt.Println("== Table 1: cube router delays (ns) ==")
	fmt.Println()
	fmt.Print(results.FormatTimings(cost.Table1()))
	fmt.Println()
	fmt.Println("== Table 2: fat-tree router delays (ns) ==")
	fmt.Println()
	fmt.Print(results.FormatTimings(cost.Table2()))
	fmt.Println()

	// ---- Figures 5, 6, 7 ----
	type sweepKey struct{ pattern, label string }
	sweeps := map[sweepKey][]core.Result{}
	labels := make([]string, len(configs))
	for _, pattern := range patterns {
		for i, cfg := range configs {
			cfg.Pattern = pattern
			cfg.Seed = *seed
			cfg.Warmup, cfg.Horizon = warmup, horizon
			cfg.WatchdogCycles = flags.Watchdog
			cfg.Faults, cfg.Burst = faultsSpec, *burst
			o := sess.Options
			o.Batch = cfg.Label() + "/" + pattern
			swept, err := core.SweepWith(cfg, loads, runtime.GOMAXPROCS(0), o)
			if err != nil {
				fatal(err)
			}
			labels[i] = swept[0].Config.Label()
			sweeps[sweepKey{pattern, labels[i]}] = swept
			fmt.Fprintf(os.Stderr, "swept %-22s %-11s (%s elapsed)\n", labels[i], pattern, elapsed().Round(time.Second))
		}
	}
	sess.Options.Progress.Stop()

	figure := func(title, figure string, selected []string, pattern string) {
		fmt.Printf("== %s (%s, %s traffic) ==\n\n", title, figure, pattern)
		sel := make([][]core.Result, len(selected))
		for i, label := range selected {
			sel[i] = sweeps[sweepKey{pattern, label}]
		}
		h, r, err := results.MultiSeries(selected, sel, func(res core.Result) float64 { return res.Sample.Accepted }, "offered")
		if err != nil {
			fatal(err)
		}
		fmt.Println("accepted bandwidth (fraction of capacity):")
		fmt.Print(results.FormatTable(h, r))
		writeCSV(*csvDir, fmt.Sprintf("%s-%s-accepted.csv", figure, pattern), h, r)
		h, r, err = results.MultiSeries(selected, sel, func(res core.Result) float64 { return res.Sample.AvgLatency }, "offered")
		if err != nil {
			fatal(err)
		}
		fmt.Println("network latency (cycles):")
		fmt.Print(results.FormatTable(h, r))
		writeCSV(*csvDir, fmt.Sprintf("%s-%s-latency.csv", figure, pattern), h, r)
		fmt.Println()
	}

	treeLabels := labels[2:]
	cubeLabels := labels[:2]
	for _, p := range patterns {
		figure("4-ary 4-tree with 1, 2 and 4 virtual channels", "fig5", treeLabels, p)
	}
	for _, p := range patterns {
		figure("16-ary 2-cube, deterministic vs minimal adaptive", "fig6", cubeLabels, p)
	}
	for _, p := range patterns {
		fmt.Printf("== Normalized absolute comparison (fig7, %s traffic) ==\n\n", p)
		sel := make([][]core.Result, len(labels))
		for i, label := range labels {
			sel[i] = sweeps[sweepKey{p, label}]
		}
		h, r, err := results.MultiSeries(labels, sel, func(res core.Result) float64 { return res.AcceptedBitsNS }, "offered")
		if err != nil {
			fatal(err)
		}
		fmt.Println("accepted traffic (bits/ns):")
		fmt.Print(results.FormatTable(h, r))
		writeCSV(*csvDir, fmt.Sprintf("fig7-%s-throughput.csv", p), h, r)
		h, r, err = results.MultiSeries(labels, sel, func(res core.Result) float64 { return res.LatencyNS }, "offered")
		if err != nil {
			fatal(err)
		}
		fmt.Println("network latency (ns):")
		fmt.Print(results.FormatTable(h, r))
		writeCSV(*csvDir, fmt.Sprintf("fig7-%s-latency.csv", p), h, r)
		fmt.Println()
	}

	// ---- Scorecard ----
	fmt.Println("== Scorecard: saturation points, paper vs measured (fraction of capacity) ==")
	fmt.Println()
	headers := []string{"pattern", "configuration", "paper", "measured", "measured bits/ns"}
	var rows [][]string
	for _, p := range patterns {
		for _, label := range labels {
			swept := sweeps[sweepKey{p, label}]
			row := results.Summarize(label, swept, 0.02)
			measured := fmt.Sprintf("%.2f", row.SaturationFrac)
			if !row.Saturated {
				measured = ">" + measured
			}
			rows = append(rows, []string{
				p, label,
				fmt.Sprintf("%.2f", paperSaturation[p][label]),
				measured,
				fmt.Sprintf("%.0f", row.SaturationBitsNS),
			})
		}
	}
	fmt.Print(results.FormatTable(headers, rows))
	writeCSV(*csvDir, "scorecard.csv", headers, rows)
	fmt.Println()

	if *degraded {
		runDegraded(loads, warmup, horizon, *seed, *csvDir, sess.Options, elapsed)
	}

	if *ablate {
		runAblations(loads, warmup, horizon, *seed, *csvDir)
	}

	if err := sess.Close(nil); err != nil {
		os.Exit(1)
	}
	fmt.Printf("total wall time %s\n", elapsed().Round(time.Second))
}

func writeCSV(dir, name string, headers []string, rows [][]string) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := results.WriteCSV(f, headers, rows); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	sess.Fatal(err)
}
