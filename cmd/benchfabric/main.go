// Command benchfabric measures the wormhole fabric's raw per-cycle cost
// over a nodes x shards x load matrix and records the results as JSON.
// The committed BENCH_fabric.json holds one record per measured
// revision, so the repository carries its own perf trajectory:
//
//	go run ./cmd/benchfabric -label my-change -o BENCH_fabric.json -append
//
// appends a record to the existing file (v1 records are preserved
// verbatim); without -append the file is replaced by a single record.
// -o ” measures without writing, which, combined with the built-in
// cross-shard Counters check, is the CI smoke invocation:
//
//	go run ./cmd/benchfabric -nodes 256 -shards 1,4 -loads 0.6 -o ''
//
// Network sizes are named by node count and resolved through per-family
// presets (tree: 256=4-ary 4-tree ... 110592=48-ary 3-tree; cube:
// 256=16x16 torus ... 262144=64^3 torus). Before timing, every
// (network, nodes, load) cell is run at a fixed short horizon on every
// requested shard count and the fabric Counters are diffed against the
// first: a sharded engine that drifts by a single flit fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"smart"
	"smart/internal/order"
	"smart/internal/wormhole"
)

// point is one measured (network, nodes, shards, load) cell.
type point struct {
	Network      string  `json:"network"`
	Nodes        int     `json:"nodes"`
	Shards       int     `json:"shards"`
	Load         float64 `json:"load"`
	NSPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	AllocsPerCyc float64 `json:"allocs_per_cycle"`
	BytesPerCyc  float64 `json:"bytes_per_cycle"`
	// HeapLiveMB is the live heap after a forced GC at the end of the
	// timed run, with the fabric still reachable: lane state, flit
	// arena and packet table. Absent from records that predate it.
	HeapLiveMB float64 `json:"heap_live_mb,omitempty"`
}

// record is one measured revision.
type record struct {
	Schema    string `json:"schema"`
	Label     string `json:"label"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	// MaxProcs pins the host parallelism the shard columns ran under —
	// without it a shards=4 row from a 1-core box reads as a regression.
	MaxProcs int     `json:"max_procs"`
	Note     string  `json:"note,omitempty"`
	Results  []point `json:"results"`
}

// presets resolves a node count to the (K, N) that builds it, per
// family. Tree sizes are k-ary n-trees (K^N nodes), cube sizes are
// K^N tori.
var presets = map[smart.NetworkKind]map[int][2]int{
	smart.NetworkTree: {
		256:    {4, 4},
		4096:   {8, 4},
		65536:  {16, 4},
		110592: {48, 3},
	},
	smart.NetworkCube: {
		256:    {16, 2},
		4096:   {16, 3},
		32768:  {32, 3},
		110592: {48, 3},
		262144: {64, 3},
	},
}

func configFor(network smart.NetworkKind, nodes int, load float64) (smart.Config, error) {
	kn, ok := presets[network][nodes]
	if !ok {
		var known []string
		for _, n := range order.Keys(presets[network]) {
			known = append(known, strconv.Itoa(n))
		}
		return smart.Config{}, fmt.Errorf("no %s preset for %d nodes (have %s)", network, nodes, strings.Join(known, ", "))
	}
	return smart.Config{Network: network, K: kn[0], N: kn[1], Load: load, Seed: 1}, nil
}

// measure times steady-state cycles of one cell.
func measure(network smart.NetworkKind, nodes, shards int, load float64, settle int64) (point, error) {
	cfg, err := configFor(network, nodes, load)
	if err != nil {
		return point{}, err
	}
	var fail error
	var heapMB float64
	res := testing.Benchmark(func(b *testing.B) {
		s, err := smart.NewSimulationShards(cfg, shards)
		if err != nil {
			fail = err
			b.Skip()
		}
		s.Engine.Run(settle) // settle into steady state at this load
		b.ReportAllocs()
		b.ResetTimer()
		start := s.Engine.Cycle()
		s.Engine.Run(start + int64(b.N))
		b.StopTimer()
		heapMB = liveHeapMB()
		runtime.KeepAlive(s)
	})
	if fail != nil {
		return point{}, fail
	}
	nsPerCycle := float64(res.T.Nanoseconds()) / float64(res.N)
	return point{
		Network:      string(network),
		Nodes:        nodes,
		Shards:       shards,
		Load:         load,
		NSPerCycle:   nsPerCycle,
		CyclesPerSec: 1e9 / nsPerCycle,
		AllocsPerCyc: float64(res.MemAllocs) / float64(res.N),
		BytesPerCyc:  float64(res.MemBytes) / float64(res.N),
		HeapLiveMB:   heapMB,
	}, nil
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkShards runs one cell at a fixed horizon on every requested shard
// count and diffs the fabric Counters against the first. This is the
// determinism smoke CI gates on.
func checkShards(network smart.NetworkKind, nodes int, shardList []int, load float64, horizon int64) error {
	if len(shardList) < 2 {
		return nil
	}
	cfg, err := configFor(network, nodes, load)
	if err != nil {
		return err
	}
	type outcome struct {
		counters wormhole.Counters
		shards   int
	}
	var base *outcome
	for _, shards := range shardList {
		s, err := smart.NewSimulationShards(cfg, shards)
		if err != nil {
			return err
		}
		s.Engine.Run(horizon)
		c := s.Fabric.Counters()
		if base == nil {
			base = &outcome{counters: c, shards: s.Shards}
			continue
		}
		if c != base.counters {
			return fmt.Errorf("%s n=%d load=%.2f: Counters diverge between shards=%d and shards=%d after %d cycles:\n  %+v\n  %+v",
				network, nodes, load, base.shards, s.Shards, horizon, base.counters, c)
		}
	}
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfabric:", err)
	os.Exit(1)
}

func main() {
	label := flag.String("label", "local", "label for this record (e.g. a change name)")
	out := flag.String("o", "BENCH_fabric.json", "output file; empty measures without writing")
	appendTo := flag.Bool("append", false, "append to the existing file instead of replacing it")
	networks := flag.String("networks", "tree,cube", "comma-separated network families")
	nodesCSV := flag.String("nodes", "256", "comma-separated node counts (preset sizes)")
	shardsCSV := flag.String("shards", "1", "comma-separated shard counts (0 = auto)")
	loadsCSV := flag.String("loads", "0.2,0.6,0.9", "comma-separated offered loads")
	settle := flag.Int64("settle", 500, "warm-up cycles before timing each cell")
	checkCycles := flag.Int64("check", 300, "horizon for the cross-shard Counters diff; 0 disables")
	note := flag.String("note", "", "free-form caveat recorded with this revision")
	flag.Parse()

	nodeList, err := parseInts(*nodesCSV)
	if err != nil {
		fatal(err)
	}
	shardList, err := parseInts(*shardsCSV)
	if err != nil {
		fatal(err)
	}
	loadList, err := parseFloats(*loadsCSV)
	if err != nil {
		fatal(err)
	}
	var netList []smart.NetworkKind
	for _, n := range strings.Split(*networks, ",") {
		netList = append(netList, smart.NetworkKind(strings.TrimSpace(n)))
	}

	rec := record{
		Schema: "smart/bench-fabric/v2",
		Label:  *label,
		//smartlint:allow wallclock — timestamping the committed benchmark record; not simulation time
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Note:      *note,
	}
	for _, network := range netList {
		for _, nodes := range nodeList {
			for _, load := range loadList {
				if *checkCycles > 0 {
					if err := checkShards(network, nodes, shardList, load, *checkCycles); err != nil {
						fatal(err)
					}
				}
				for _, shards := range shardList {
					p, err := measure(network, nodes, shards, load, *settle)
					if err != nil {
						fatal(fmt.Errorf("%s n=%d shards=%d load=%.1f: %v", network, nodes, shards, load, err))
					}
					fmt.Printf("%-5s n=%-7d shards=%-2d load=%.1f  %10.0f cycles/sec  %10.1f ns/cycle  %6.2f allocs/cycle  %8.1f MB live\n",
						network, nodes, p.Shards, p.Load, p.CyclesPerSec, p.NSPerCycle, p.AllocsPerCyc, p.HeapLiveMB)
					rec.Results = append(rec.Results, p)
				}
			}
		}
	}

	if *out == "" {
		fmt.Println("no output file; record discarded (cross-shard check passed)")
		return
	}
	// Keep prior records byte-for-byte (v1 records have no nodes/shards
	// fields): splice the new record in as raw JSON.
	var records []json.RawMessage
	if *appendTo {
		if buf, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(buf, &records); err != nil {
				fatal(fmt.Errorf("existing %s is not a record array: %v", *out, err))
			}
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	records = append(records, raw)
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d records)\n", *out, len(records))
}
