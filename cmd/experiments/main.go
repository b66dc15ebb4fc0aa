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
// Every study the flags ask for — the figures, -degraded and
// -ablations — is declared as data, and all their runs go through one
// grid under the shared observability, telemetry and resilience flags of
// internal/cli, so -checkpoint/-resume, -manifest, -shards, -selfcheck
// and -v cover the whole report. The report is printed once the grid
// has finished. -checkpoint keeps every completed run in a result store
// directory as it finishes; after a kill or a failure, rerunning with
// -checkpoint and -resume replays the stored runs and simulates only the
// rest:
//
//	experiments -checkpoint grid.ckpt | tee report.txt
//	experiments -checkpoint grid.ckpt -resume | tee report.txt
package main

import (
	"flag"
	"fmt"
	"os"
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
	faultsFlag := flag.String("faults", "", "fault schedule applied to every run of the paper figures (spec or smart/faults/v1 JSONL file); deterministic cube routing is fault-oblivious and may wedge — pair with -watchdog")
	burst := flag.String("burst", "", "bursty injection applied to every run of the paper figures (mmpp:<dwellOn>:<dwellOff>:<peak>)")
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
	faultsSpec, err := faults.ResolveFlag(*faultsFlag)
	if err == nil {
		err = traffic.CheckBurst(*burst)
	}
	var runs []core.GridRun
	studies := paperStudies(*seed, warmup, horizon, flags.Watchdog, faultsSpec, *burst)
	if *degraded {
		studies = append(studies, degradedStudy(*seed, warmup, horizon))
	}
	if *ablate {
		studies = append(studies, ablationStudies(*seed, warmup, horizon)...)
	}
	if err == nil {
		runs, sess, err = openGrid(flags, studies, loads)
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

	res, err := core.RunGrid(runs, runtime.GOMAXPROCS(0), sess.Options)
	if err != nil {
		fatal(err)
	}
	sess.Options.Progress.Stop()
	sweeps := sweepsByBatch(runs, res)
	for _, s := range studies {
		if err := s.render(os.Stdout, sweeps, *csvDir); err != nil {
			fatal(err)
		}
	}

	if err := sess.Close(nil); err != nil {
		os.Exit(1)
	}
	fmt.Printf("total wall time %s\n", elapsed().Round(time.Second))
}

// paperStudies declares Figures 5, 6 and 7 and the saturation scorecard
// over the paper's 20 sweeps (4 patterns x 5 configurations). The
// figures share those sweeps, so each runs once; -faults and -burst
// apply to them alone.
func paperStudies(seed uint64, warmup, horizon, watchdog int64, faultsSpec, burst string) []study {
	byPattern := map[string][]studyCase{}
	var all []studyCase
	for _, pattern := range patterns {
		for _, cfg := range core.PaperConfigs() {
			cfg.Pattern = pattern
			cfg.Seed = seed
			cfg.Warmup, cfg.Horizon = warmup, horizon
			cfg.WatchdogCycles = watchdog
			cfg.Faults, cfg.Burst = faultsSpec, burst
			c := studyCase{label: cfg.Label(), batch: cfg.Label() + "/" + pattern, cfg: cfg}
			byPattern[pattern] = append(byPattern[pattern], c)
			all = append(all, c)
		}
	}
	var studies []study
	figure := func(title, fig, pattern string, cases []studyCase) study {
		return study{
			title: fmt.Sprintf("%s (%s, %s traffic)", title, fig, pattern),
			cases: cases,
			tables: []table{
				{caption: "accepted bandwidth (fraction of capacity)", metric: accepted, csv: fig + "-" + pattern + "-accepted.csv"},
				{caption: "network latency (cycles)", metric: latency, csv: fig + "-" + pattern + "-latency.csv"},
			},
		}
	}
	for _, p := range patterns {
		studies = append(studies, figure("4-ary 4-tree with 1, 2 and 4 virtual channels", "fig5", p, byPattern[p][2:]))
	}
	for _, p := range patterns {
		studies = append(studies, figure("16-ary 2-cube, deterministic vs minimal adaptive", "fig6", p, byPattern[p][:2]))
	}
	for _, p := range patterns {
		studies = append(studies, study{
			title: fmt.Sprintf("Normalized absolute comparison (fig7, %s traffic)", p),
			cases: byPattern[p],
			tables: []table{
				{caption: "accepted traffic (bits/ns)", metric: bitsNS, csv: "fig7-" + p + "-throughput.csv"},
				{caption: "network latency (ns)", metric: latencyNS, csv: "fig7-" + p + "-latency.csv"},
			},
		})
	}
	return append(studies, study{
		title: "Scorecard: saturation points, paper vs measured (fraction of capacity)",
		cases: all,
		tables: []table{{
			headers: []string{"pattern", "configuration", "paper", "measured", "measured bits/ns"},
			row: func(c studyCase, swept []core.Result) []string {
				sat, row := saturation(swept)
				return []string{
					c.cfg.Pattern, c.label,
					fmt.Sprintf("%.2f", paperSaturation[c.cfg.Pattern][c.label]),
					sat,
					fmt.Sprintf("%.0f", row.SaturationBitsNS),
				}
			},
			csv: "scorecard.csv",
		}},
	})
}

func fatal(err error) {
	sess.Fatal(err)
}
