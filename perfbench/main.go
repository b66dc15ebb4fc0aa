// Command perfbench is the repository's benchmark. It drives the
// simulator as a library, through its public functions only, and times
// it from here:
//
//	paper-grid    the paper's five configurations x 10 loads x uniform and
//	              transpose at a shortened horizon, through core.SweepWith
//	large-fabric  one 4096-node 16-ary 3-cube Duato run on nproc shards
//	serve-mixed   a closed loop of nproc HTTP clients against the sweep
//	              service over a store warmed during set-up
//
// Usage (from the module root of the repository):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 it holds every
// per-layer metric, measured in a separate traced run. Human-readable
// tables go to standard error, and the full record (with the host stamp)
// and the span trace are written under .perfbench/. See README.md for
// what each metric means on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind: scratch stores, result
// records and span traces. It is relative to the working directory,
// which is the repository root.
var outDir = ".perfbench"

// heldOutSeed is the workload seed kept out of tuning: a later claim of a
// speed-up must also hold when the benchmark is run with this seed.
const heldOutSeed = 6007

// setupSamples is how many times each workload sets up in a run; setup_s
// is the median. Each sample starts after a forced collection, so the
// garbage of the previous sample is not charged to it.
const setupSamples = 5

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
// The meaning of work_per_s and op_p50_ms depends on the workload's unit
// of work (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// stageNames are the engine stages the wormhole and traffic layers
// register: the five sequential fabric stages, the opaque sharded
// "fabric" stage and the serial traffic injector.
var stageNames = []string{"link", "crossbar", "routing", "injection", "credits", "fabric", "traffic"}

// perLayer lists the metrics a --trace 1 run prints, on every workload.
// A layer that does no work on a workload reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wormhole.link_ns_per_flit_hop", "ns"},
		{"wormhole.crossbar_ns_per_flit_hop", "ns"},
		{"wormhole.routing_ns_per_header", "ns"},
		{"wormhole.injection_ns_per_cycle", "ns"},
		{"wormhole.credits_ns_per_cycle", "ns"},
		{"wormhole.fabric_ns_per_cycle", "ns"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"wormhole.stage_share." + s, "share"})
	}
	return append(defs,
		metricDef{"wormhole.flit_hops", "count"},
		metricDef{"wormhole.headers_routed", "count"},
		metricDef{"wormhole.credit_stalls", "count"},
		metricDef{"wormhole.packets_retained", "count"},
		metricDef{"wormhole.bytes_per_packet_retained", "B"},
		metricDef{"traffic.ns_per_cycle", "ns"},
		metricDef{"traffic.packets_created", "count"},
		metricDef{"sim.shard_speedup", "x"},
		metricDef{"core.assemble_ms", "ms"},
		metricDef{"core.overhead_share", "share"},
		metricDef{"core.grid_idle_share", "share"},
		metricDef{"core.replay_us", "us"},
		metricDef{"core.paper_sat_mae", "fraction"},
		metricDef{"store.get_us_p50", "us"},
		metricDef{"store.get_us_p99", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.bytes_per_record", "B"},
		metricDef{"serve.http_overhead_us", "us"},
		metricDef{"serve.hit_ms", "ms"},
		metricDef{"serve.hit_p99_ms", "ms"},
		metricDef{"serve.miss_ms", "ms"},
		metricDef{"serve.not_modified_ms", "ms"},
		metricDef{"serve.result_ms", "ms"},
		metricDef{"serve.sweep_ms", "ms"},
		metricDef{"serve.hit_ratio", "share"},
		metricDef{"serve.requests", "count"},
		metricDef{"serve.misses", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.busy", "count"},
		metricDef{"serve.failures", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.alloc_bytes_per_cycle", "B"},
		metricDef{"trace.work_per_s_delta", "1/s"},
	)
}()

// params are the command-line inputs of one run.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// size selects the workload dimensions: "full" for the benchmark,
	// "tiny" for the package's own tests.
	size string
	// pins is the reference the correctness gates compare against.
	pins *reference
}

// report is what a workload measured. Values maps metric name to value;
// a run that failed a gate may stop early, and reports the metrics it
// did not reach as 0. Notes are human-readable lines for standard
// error.
type report struct {
	values map[string]float64
	// aliases are the same measurements under workload-specific names
	// (grid_wall_s, cycles_per_s, hit_p50_ms, ...), kept in the result
	// record for readers.
	aliases map[string]float64
	notes   []string
	tally
	rec *recorder
}

func newReport(trace bool) *report {
	r := &report{values: map[string]float64{}, aliases: map[string]float64{}}
	if trace {
		r.rec = newRecorder()
	}
	return r
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// zero records metrics whose layer does no work on this workload.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts operations attempted and failed, including every
// correctness gate.
type tally struct {
	attempted, failed int64
	failures          []string
}

// ops records n operations of which bad failed.
func (t *tally) ops(n, bad int64) {
	t.attempted += n
	t.failed += bad
}

// check records one correctness gate.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

type workloadFunc func(p params) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-grid":   paperGrid,
	"large-fabric": largeFabric,
	"serve-mixed":  serveMixed,
}

func main() {
	var p params
	var trace int
	var writePins bool
	flag.StringVar(&p.workload, "workload", "", "workload: paper-grid, large-fabric or serve-mixed")
	flag.Uint64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&p.size, "size", "full", "workload dimensions: full or tiny")
	flag.BoolVar(&writePins, "write-pins", false, "recompute the pinned correctness references for -size and print them as JSON")
	flag.Parse()
	p.trace = trace == 1

	pins, err := loadReference()
	if err != nil {
		fatal(err)
	}
	p.pins = pins
	if writePins {
		if err := writeReference(os.Stdout, p.size, pins); err != nil {
			fatal(err)
		}
		return
	}
	if _, ok := workloads[p.workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q", p.workload))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	line, err := run(p, os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the host and inputs of a result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	HeldOut    uint64  `json:"held_out_seed"`
	Trace      bool    `json:"trace"`
	Size       string  `json:"size"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seconds    float64 `json:"seconds"`
}

// run executes one workload and returns the result line. The full
// record and, for traced runs, the spans are written under outDir.
func run(p params, log io.Writer) (string, error) {
	st := stamp{
		Workload: p.workload, Seed: p.seed, HeldOut: heldOutSeed, Trace: p.trace, Size: p.size,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seconds: p.seconds,
	}
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d (held-out seed %d) trace=%v size=%s nproc=%d GOMAXPROCS=%d %s\n",
		st.Workload, st.Seed, st.HeldOut, st.Trace, st.Size, st.NProc, st.GOMAXPROCS, st.GoVersion)
	rep, err := workloads[p.workload](p)
	if err != nil {
		return "", err
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && rep.failed == 0 {
			return "", fmt.Errorf("workload %s did not measure %s", p.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("workload %s measured %s = %v", p.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return "", fmt.Errorf("workload %s attempted no operations", p.workload)
	}
	res.Correct = res.Failed == 0

	for _, n := range rep.notes {
		fmt.Fprintln(log, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(log, "FAILED:", f)
	}
	printMetrics(log, defs, res.Metrics, rep.aliases)
	base := fmt.Sprintf("%s-seed%d-trace0", p.workload, p.seed)
	if p.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", p.workload, p.seed)
	}
	if rep.rec != nil {
		rep.rec.printSelfTimes(log)
		path := filepath.Join(outDir, base+".spans.jsonl")
		if err := rep.rec.write(path, st); err != nil {
			return "", err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	full := struct {
		Stamp    stamp              `json:"stamp"`
		Result   result             `json:"result"`
		Aliases  map[string]float64 `json:"aliases"`
		Failures []string           `json:"failures,omitempty"`
	}{st, res, rep.aliases, rep.failures}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".result.json"), append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(line), nil
}

func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric, aliases map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(aliases))
	for n := range aliases {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "  workload names: ")
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s=%.6g", n, aliases[n])
		}
		fmt.Fprintln(w, strings.Join(parts, " "))
	}
}

// workDir returns a fresh scratch directory for stores, removed by the
// returned cleanup.
func workDir(name string) (string, func(), error) {
	dir := filepath.Join(outDir, "work", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// workers is the parallelism of every workload: grid workers, fabric
// shards and HTTP clients never exceed the host's processor count.
func workers() int { return runtime.NumCPU() }

// simSeed maps a workload seed onto the pinned simulation seeds, so that
// every workload seed has a pinned correctness reference: seeds 1 to 4
// for every workload seed but the held-out one, which alone gets
// simulation seed 5, so that it runs a workload no other seed runs.
func simSeed(seed uint64) uint64 {
	if seed == heldOutSeed {
		return heldOutSimSeed
	}
	return 1 + seed%4
}

// heldOutSimSeed is the simulation seed of the held-out workload seed.
const heldOutSimSeed = 5

// splitmix is a small deterministic mixer for deriving inputs from the
// workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
