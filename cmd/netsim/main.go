// Command netsim runs a single simulation of the SMART model and reports
// its measurements: one (network, algorithm, pattern, load) point of the
// paper's evaluation, in both normalized and absolute units.
//
// Examples:
//
//	netsim -net cube -alg duato -pattern uniform -load 0.6
//	netsim -net tree -vcs 2 -pattern transpose -load 0.4 -horizon 40000
//	netsim -net cube -k 8 -n 3 -alg deterministic -pattern tornado -load 0.3
package main

import (
	"flag"
	"fmt"
	"os"

	"smart/internal/chanstats"
	"smart/internal/core"
	"smart/internal/faults"
	"smart/internal/obs"
	"smart/internal/telemetry"
	"smart/internal/topology"
)

func main() {
	var cfg core.Config
	var network, alg string
	obsFlags := obs.AddFlags(flag.CommandLine)
	telFlags := telemetry.AddFlags(flag.CommandLine)
	flag.StringVar(&network, "net", "tree", "network family: tree or cube")
	flag.IntVar(&cfg.K, "k", 0, "radix (default: 4 for the tree, 16 for the cube)")
	flag.IntVar(&cfg.N, "n", 0, "dimension/levels (default: 4 for the tree, 2 for the cube)")
	flag.StringVar(&alg, "alg", "", "routing algorithm: adaptive (tree), deterministic or duato (cube)")
	flag.IntVar(&cfg.VCs, "vcs", 0, "virtual channels per link (tree: 1/2/4; cube: 4)")
	flag.IntVar(&cfg.BufDepth, "buf", 0, "lane buffer depth in flits (default 4)")
	flag.IntVar(&cfg.PacketBytes, "packet", 0, "packet size in bytes (default 64)")
	flag.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern: uniform, complement, bitrev, transpose, tornado, shuffle, neighbor, hotspot")
	flag.Float64Var(&cfg.Load, "load", 0.4, "offered bandwidth as a fraction of capacity")
	flag.Float64Var(&cfg.HotspotFraction, "hotfrac", 0, "hotspot traffic fraction (hotspot pattern)")
	flag.Int64Var(&cfg.HotspotPeriod, "hotperiod", 0, "rotate the hotspot pattern's hot node every N cycles (0 = fixed)")
	faultsFlag := flag.String("faults", "", "fault schedule: spec like link:R:P@C1-C2,router:R@C,rand-links:N@C — or a smart/faults/v1 JSONL file")
	flag.StringVar(&cfg.Burst, "burst", "", "bursty injection: mmpp:<dwellOn>:<dwellOff>:<peak>")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Int64Var(&cfg.Warmup, "warmup", 0, "warm-up cycles before measurement (default 2000)")
	flag.Int64Var(&cfg.Horizon, "horizon", 0, "total simulated cycles (default 20000)")
	flag.IntVar(&cfg.InjLanes, "injlanes", 0, "injection lanes per node (default 1: source throttling)")
	flag.IntVar(&cfg.LinkCycles, "linkcycles", 0, "flit flight time per link in cycles (default 1; >1 = pipelined long wires)")
	flag.BoolVar(&cfg.StoreAndForward, "saf", false, "store-and-forward switching (needs -buf >= packet flits)")
	util := flag.Bool("util", false, "also print channel utilization by level (tree) or dimension (cube/mesh)")
	shards := flag.Int("shards", 1, "fabric shards (0 = auto from network size and GOMAXPROCS; results are bit-identical)")
	flag.Parse()
	cfg.Network = core.NetworkKind(network)
	cfg.Algorithm = alg
	var err error
	if cfg.Faults, err = faults.ResolveFlag(*faultsFlag); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}

	stopProf, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	opts := core.Options{Logger: obsFlags.Logger()}
	var profiler *obs.StageProfiler
	if obsFlags.Verbose {
		profiler = obs.NewStageProfiler()
		opts.Profiler = profiler
	}
	tel, telAddr, telStop, err := telFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	if tel != nil {
		if tel.Server != nil {
			fmt.Fprintf(os.Stderr, "netsim: serving telemetry on http://%s/metrics\n", telAddr)
		}
		opts.Telemetry = tel
	}
	sm, err := core.NewSimulationShards(cfg, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	res, err := sm.RunWith(opts)
	if terr := telStop(); terr != nil && err == nil {
		err = terr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	c := res.Config
	fmt.Printf("configuration    %s (%d-ary %d-%s), pattern %s, seed %d\n", c.Label(), c.K, c.N, c.Network, c.Pattern, c.Seed)
	fmt.Printf("methodology      warm-up %d cycles, horizon %d cycles, %dB packets, %d-flit buffers\n", c.Warmup, c.Horizon, c.PacketBytes, c.BufDepth)
	fmt.Printf("clock            %.2f ns (T_routing %.2f, T_crossbar %.2f, T_link %.2f)\n",
		res.Timing.Clock, res.Timing.TRouting, res.Timing.TCrossbar, res.Timing.TLink)
	fmt.Println()
	s := res.Sample
	fmt.Printf("offered          %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Offered, res.OfferedBitsNS)
	fmt.Printf("accepted         %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Accepted, res.AcceptedBitsNS)
	fmt.Printf("latency          %.1f cycles mean   (%.2f us)\n", s.AvgLatency, res.LatencyNS/1000)
	fmt.Printf("                 %.1f cycles p95, %.1f cycles head mean\n", s.P95Latency, s.AvgHeadLatency)
	fmt.Printf("packets          %d delivered, %d created in window, %.2f switch hops mean\n",
		s.PacketsDelivered, s.PacketsCreated, s.AvgHops)
	if sm.Fabric.HasFaults() {
		fmt.Printf("faults           %d events applied, %d fault stalls, %d draws dropped at dead endpoints\n",
			sm.Faults.Applied(), sm.Fabric.FaultStalls(), sm.Injector.Dropped())
		if rr, ok := sm.Fabric.Alg.(interface{ Rerouted() int64 }); ok {
			fmt.Printf("                 %d headers rerouted around fault masks\n", rr.Rerouted())
		}
	}
	if s.CreatedLoad-s.Accepted > 0.02 {
		fmt.Println()
		fmt.Println("the network is saturated at this offered load")
	}

	if *util {
		fmt.Println()
		window := c.Horizon - c.Warmup
		switch top := sm.Top.(type) {
		case *topology.Tree:
			levels, err := chanstats.TreeLevels(sm.Fabric, top, window)
			if err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
				os.Exit(1)
			}
			fmt.Println("channel utilization by level (fraction of cycles busy):")
			for _, l := range levels {
				fmt.Printf("  level %d   up %.3f   down %.3f\n", l.Level, l.Up, l.Down)
			}
		case *topology.Cube:
			dims, err := chanstats.CubeDims(sm.Fabric, top, window)
			if err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
				os.Exit(1)
			}
			fmt.Println("channel utilization by dimension (fraction of cycles busy):")
			for _, d := range dims {
				fmt.Printf("  dim %d     plus %.3f  minus %.3f\n", d.Dim, d.Plus, d.Minus)
			}
		}
		if ej, err := chanstats.Ejection(sm.Fabric, window); err == nil {
			fmt.Printf("  ejection  %.3f\n", ej)
		}
	}

	if profiler != nil {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, "per-stage engine timing (hottest first):")
		fmt.Fprint(os.Stderr, obs.FormatStageReport(profiler.Report()))
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}
