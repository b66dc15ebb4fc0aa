// Command compare reproduces Figure 7 of the paper: the normalized
// comparison of the 16-ary 2-cube and the 4-ary 4-tree in absolute units.
// For one traffic pattern it sweeps all five configurations (cube
// deterministic, cube Duato, tree with 1/2/4 virtual channels), filters
// the cycle-domain results through the router-complexity and wire-delay
// cost model, and prints accepted traffic (bits/ns) and latency (ns)
// against the aggregate offered traffic.
//
// Examples:
//
//	compare -pattern uniform
//	compare -pattern complement -csv complement.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"smart/internal/core"
	"smart/internal/plot"
	"smart/internal/results"
)

func main() {
	pattern := flag.String("pattern", "uniform", "traffic pattern")
	seed := flag.Uint64("seed", 1, "random seed")
	step := flag.Float64("step", 0.05, "offered-load step")
	quick := flag.Bool("quick", false, "coarse grid and short horizon for a fast preview")
	csvPath := flag.String("csv", "", "write throughput and latency series as CSV (two files, suffixes -throughput and -latency)")
	showPlot := flag.Bool("plot", false, "render the comparison as ASCII charts")
	flag.Parse()

	var loads []float64
	st := *step
	var warmup, horizon int64
	if *quick {
		st = 0.1
		warmup, horizon = 1000, 8000
	}
	for l := st; l <= 1.0001; l += st {
		loads = append(loads, l)
	}

	configs := core.PaperConfigs()
	labels := make([]string, len(configs))
	sweeps := make([][]core.Result, len(configs))
	for i, cfg := range configs {
		cfg.Pattern = *pattern
		cfg.Seed = *seed
		cfg.Warmup, cfg.Horizon = warmup, horizon
		swept, err := core.SweepWith(cfg, loads, runtime.GOMAXPROCS(0), core.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		labels[i] = swept[0].Config.Label()
		sweeps[i] = swept
	}

	fmt.Printf("Figure 7 reproduction — %s traffic, absolute units after cost-model filtering\n\n", *pattern)

	fmt.Println("accepted traffic (bits/ns) vs offered fraction of capacity:")
	th, tr, err := results.MultiSeries(labels, sweeps, func(r core.Result) float64 { return r.AcceptedBitsNS }, "offered")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	fmt.Print(results.FormatTable(th, tr))
	fmt.Println()

	fmt.Println("network latency (ns) vs offered fraction of capacity:")
	lh, lr, err := results.MultiSeries(labels, sweeps, func(r core.Result) float64 { return r.LatencyNS }, "offered")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	fmt.Print(results.FormatTable(lh, lr))
	fmt.Println()

	if *showPlot {
		mkSeries := func(pick func(core.Result) float64) []plot.Series {
			out := make([]plot.Series, len(sweeps))
			for i, sw := range sweeps {
				xs := make([]float64, len(sw))
				ys := make([]float64, len(sw))
				for j, r := range sw {
					xs[j] = r.OfferedBitsNS
					ys[j] = pick(r)
				}
				out[i] = plot.Series{Name: labels[i], X: xs, Y: ys}
			}
			return out
		}
		charts := []plot.Chart{
			{Title: "accepted vs offered traffic", XLabel: "offered (bits/ns)", YLabel: "accepted (bits/ns)",
				Width: 64, Height: 16, Series: mkSeries(func(r core.Result) float64 { return r.AcceptedBitsNS })},
			{Title: "network latency vs offered traffic", XLabel: "offered (bits/ns)", YLabel: "latency (ns)",
				Width: 64, Height: 16, Series: mkSeries(func(r core.Result) float64 { return r.LatencyNS })},
		}
		for _, ch := range charts {
			rendered, err := ch.Render()
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			fmt.Print(rendered)
			fmt.Println()
		}
	}

	fmt.Println("summary (§10/§11 headline numbers):")
	rows := make([]results.SummaryRow, len(configs))
	for i := range configs {
		rows[i] = results.Summarize(labels[i], sweeps[i], 0.02)
	}
	fmt.Print(results.FormatSummary(rows))

	if *csvPath != "" {
		base := strings.TrimSuffix(*csvPath, filepath.Ext(*csvPath))
		ext := filepath.Ext(*csvPath)
		if ext == "" {
			ext = ".csv"
		}
		for _, out := range []struct {
			suffix  string
			headers []string
			rows    [][]string
		}{
			{"-throughput", th, tr},
			{"-latency", lh, lr},
		} {
			f, err := os.Create(base + out.suffix + ext)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			if err := results.WriteCSV(f, out.headers, out.rows); err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n", base+out.suffix+ext)
		}
	}
}
