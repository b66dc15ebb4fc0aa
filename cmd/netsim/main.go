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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"smart/internal/chanstats"
	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/faults"
	"smart/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: args are the
// command-line arguments, the report goes to stdout and diagnostics to
// stderr, and the return value is the process exit code (0 success, 1
// failure or interruption, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg core.Config
	var network, alg string
	flags := cli.AddRunFlags(fs)
	fs.StringVar(&network, "net", "tree", "network family: tree or cube")
	fs.IntVar(&cfg.K, "k", 0, "radix (default: 4 for the tree, 16 for the cube)")
	fs.IntVar(&cfg.N, "n", 0, "dimension/levels (default: 4 for the tree, 2 for the cube)")
	fs.StringVar(&alg, "alg", "", "routing algorithm: adaptive (tree), deterministic or duato (cube)")
	fs.IntVar(&cfg.VCs, "vcs", 0, "virtual channels per link (tree: 1/2/4; cube: 4)")
	fs.IntVar(&cfg.BufDepth, "buf", 0, "lane buffer depth in flits (default 4)")
	fs.IntVar(&cfg.PacketBytes, "packet", 0, "packet size in bytes (default 64)")
	fs.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern: uniform, complement, bitrev, transpose, tornado, shuffle, neighbor, hotspot")
	fs.Float64Var(&cfg.Load, "load", 0.4, "offered bandwidth as a fraction of capacity")
	fs.Float64Var(&cfg.HotspotFraction, "hotfrac", 0, "hotspot traffic fraction (hotspot pattern)")
	fs.Int64Var(&cfg.HotspotPeriod, "hotperiod", 0, "rotate the hotspot pattern's hot node every N cycles (0 = fixed)")
	faultsFlag := fs.String("faults", "", "fault schedule: spec like link:R:P@C1-C2,router:R@C,rand-links:N@C — or a smart/faults/v1 JSONL file")
	fs.StringVar(&cfg.Burst, "burst", "", "bursty injection: mmpp:<dwellOn>:<dwellOff>:<peak>")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.Int64Var(&cfg.Warmup, "warmup", 0, "warm-up cycles before measurement (default 2000)")
	fs.Int64Var(&cfg.Horizon, "horizon", 0, "total simulated cycles (default 20000)")
	fs.IntVar(&cfg.InjLanes, "injlanes", 0, "injection lanes per node (default 1: source throttling)")
	fs.IntVar(&cfg.LinkCycles, "linkcycles", 0, "flit flight time per link in cycles (default 1; >1 = pipelined long wires)")
	fs.BoolVar(&cfg.StoreAndForward, "saf", false, "store-and-forward switching (needs -buf >= packet flits)")
	util := fs.Bool("util", false, "also print channel utilization by level (tree) or dimension (cube/mesh)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg.Network = core.NetworkKind(network)
	cfg.Algorithm = alg
	var err error
	if cfg.Faults, err = faults.ResolveFlag(*faultsFlag); err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}

	sess, err := flags.Open("netsim", 1, 2*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}
	err = simulate(stdout, cfg, sess.Options, *util)
	if sess.Close(err) != nil {
		return 1
	}
	return 0
}

// errInterrupted ends a run stopped by SIGINT or SIGTERM: its
// measurements cover a truncated window, so no report is printed.
var errInterrupted = errors.New("interrupted; no report")

// simulate runs the one configured point under opts and writes its
// report to w.
func simulate(w io.Writer, cfg core.Config, opts core.Options, util bool) error {
	sm, err := core.NewSimulationShards(cfg, opts.Shards)
	if err != nil {
		return err
	}
	// The session turns the first signal into a cancelled context
	// instead of killing the process; stop the engine on it.
	interrupted := opts.Context.Done()
	sm.Engine.AddStop(func(int64) bool {
		select {
		case <-interrupted:
			return true
		default:
			return false
		}
	})
	res, err := sm.RunWith(opts)
	if opts.Context.Err() != nil {
		return errInterrupted
	}
	if err != nil {
		return err
	}
	c := res.Config
	fmt.Fprintf(w, "configuration    %s (%d-ary %d-%s), pattern %s, seed %d\n", c.Label(), c.K, c.N, c.Network, c.Pattern, c.Seed)
	fmt.Fprintf(w, "methodology      warm-up %d cycles, horizon %d cycles, %dB packets, %d-flit buffers\n", c.Warmup, c.Horizon, c.PacketBytes, c.BufDepth)
	fmt.Fprintf(w, "clock            %.2f ns (T_routing %.2f, T_crossbar %.2f, T_link %.2f)\n",
		res.Timing.Clock, res.Timing.TRouting, res.Timing.TCrossbar, res.Timing.TLink)
	fmt.Fprintln(w)
	s := res.Sample
	fmt.Fprintf(w, "offered          %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Offered, res.OfferedBitsNS)
	fmt.Fprintf(w, "accepted         %.3f of capacity   (%.1f bits/ns aggregate)\n", s.Accepted, res.AcceptedBitsNS)
	fmt.Fprintf(w, "latency          %.1f cycles mean   (%.2f us)\n", s.AvgLatency, res.LatencyNS/1000)
	fmt.Fprintf(w, "                 %.1f cycles p95, %.1f cycles head mean\n", s.P95Latency, s.AvgHeadLatency)
	fmt.Fprintf(w, "packets          %d delivered, %d created in window, %.2f switch hops mean\n",
		s.PacketsDelivered, s.PacketsCreated, s.AvgHops)
	if sm.Fabric.HasFaults() {
		fmt.Fprintf(w, "faults           %d events applied, %d fault stalls, %d draws dropped at dead endpoints\n",
			sm.Faults.Applied(), sm.Fabric.FaultStalls(), sm.Injector.Dropped())
		if rr, ok := sm.Fabric.Alg.(interface{ Rerouted() int64 }); ok {
			fmt.Fprintf(w, "                 %d headers rerouted around fault masks\n", rr.Rerouted())
		}
	}
	if s.CreatedLoad-s.Accepted > 0.02 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "the network is saturated at this offered load")
	}
	if !util {
		return nil
	}

	fmt.Fprintln(w)
	window := c.Horizon - c.Warmup
	switch top := sm.Top.(type) {
	case *topology.Tree:
		levels, err := chanstats.TreeLevels(sm.Fabric, top, window)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "channel utilization by level (fraction of cycles busy):")
		for _, l := range levels {
			fmt.Fprintf(w, "  level %d   up %.3f   down %.3f\n", l.Level, l.Up, l.Down)
		}
	case *topology.Cube:
		dims, err := chanstats.CubeDims(sm.Fabric, top, window)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "channel utilization by dimension (fraction of cycles busy):")
		for _, d := range dims {
			fmt.Fprintf(w, "  dim %d     plus %.3f  minus %.3f\n", d.Dim, d.Plus, d.Minus)
		}
	}
	if ej, err := chanstats.Ejection(sm.Fabric, window); err == nil {
		fmt.Fprintf(w, "  ejection  %.3f\n", ej)
	}
	return nil
}
