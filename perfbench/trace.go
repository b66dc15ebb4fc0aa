package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smart/internal/core"
	"smart/internal/sim"
	"smart/internal/wormhole"
)

// span is one timed call into the program, recorded by the benchmark
// around the public function it calls. Times are nanoseconds since the
// recorder started. Aggregate spans stand for many short calls whose
// summed duration is known but whose individual intervals were not kept
// (the per-cycle stage ticks); they are laid end to end from their
// parent's start.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Run       string `json:"run"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced fast path: do still calls the function, and records
// nothing.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named name, passing fn the span's id so that
// calls it makes can name it as their parent. It returns the span.
func (r *recorder) do(name, run string, parent int64, fn func(id int64)) span {
	if r == nil {
		fn(0)
		return span{}
	}
	id := r.next.Add(1)
	start := time.Since(r.t0)
	fn(id)
	end := time.Since(r.t0)
	s := span{ID: id, Parent: parent, Run: run, Name: name, Start: int64(start), End: int64(end)}
	r.add(s)
	return s
}

// stages records the stage times of one finished run as aggregate
// children of its run span, laid end to end from the span's start.
func (r *recorder) stages(parent span, sr *stageRun) {
	if r == nil {
		return
	}
	at := parent.Start
	for _, t := range sr.timers {
		name := layerOf(t.Name()) + "." + t.Name()
		r.add(span{ID: r.next.Add(1), Parent: parent.ID, Run: parent.Run, Name: name, Start: at, End: at + t.total, Aggregate: true})
		at += t.total
	}
}

// us returns the span's duration in microseconds.
func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration less the part of its interval its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var n int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			n += hi - lo
			at = hi
		}
	}
	return n
}

// printSelfTimes writes the per-layer self-time table: layers are the
// span-name prefixes (core, wormhole, traffic, store, serve, bench).
func (r *recorder) printSelfTimes(w io.Writer) {
	self := r.selfTimes()
	layers := map[string]time.Duration{}
	var total time.Duration
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += d
		total += d
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by span (%d spans):\n", len(r.spans))
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f ms  %5.1f%%\n", n, float64(self[n])/1e6, pct(self[n], total))
	}
	lnames := make([]string, 0, len(layers))
	for n := range layers {
		lnames = append(lnames, n)
	}
	sort.Strings(lnames)
	fmt.Fprintln(w, "self time by layer:")
	for _, n := range lnames {
		fmt.Fprintf(w, "  %-28s %12.3f ms  %5.1f%%\n", n, float64(layers[n])/1e6, pct(layers[n], total))
	}
}

func pct(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// write stores the spans as JSONL, the stamp on the first line.
func (r *recorder) write(path string, st stamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return err
	}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageTimer wraps one engine stage and accumulates its tick time, in
// total and over the measurement window (cycles >= warm-up), so window
// times divide by the window counters.
type stageTimer struct {
	inner         sim.Stage
	warmup        int64
	total, window int64
	windowTicks   int64
	onWindow      func()
}

func (t *stageTimer) Name() string { return t.inner.Name() }

func (t *stageTimer) Tick(cycle int64) {
	if t.onWindow != nil && cycle == t.warmup {
		t.onWindow()
		t.onWindow = nil
	}
	start := time.Now()
	t.inner.Tick(cycle)
	d := int64(time.Since(start))
	t.total += d
	if cycle >= t.warmup {
		t.window += d
		t.windowTicks++
	}
}

// stageRun is the instrumentation of one simulation: a timer per stage
// and the fabric counters at the start of the window.
type stageRun struct {
	sim    *core.Simulation
	timers []*stageTimer
	start  struct {
		headers, stalls, created int64
	}
}

// instrument wraps every stage of s with a timer via Engine.Instrument.
// The first stage also snapshots the cumulative fabric counters when
// the window opens.
func instrument(s *core.Simulation) *stageRun {
	sr := &stageRun{sim: s}
	s.Engine.Instrument(func(st sim.Stage) sim.Stage {
		t := &stageTimer{inner: st, warmup: s.Config.Warmup}
		if len(sr.timers) == 0 {
			t.onWindow = func() {
				sr.start.headers = s.Fabric.HeadersRouted()
				sr.start.stalls = s.Fabric.CreditStalls()
				sr.start.created = s.Fabric.Counters().PacketsCreated
			}
		}
		sr.timers = append(sr.timers, t)
		return t
	})
	return sr
}

// stageStats sums stage timers and window counters over runs.
type stageStats struct {
	window, total map[string]int64 // ns per stage name
	windowTicks   map[string]int64
	flitHops      int64
	headers       int64
	stalls        int64
	created       int64
	cycles        int64 // all simulated cycles, warm-up included
}

func newStageStats() *stageStats {
	return &stageStats{window: map[string]int64{}, total: map[string]int64{}, windowTicks: map[string]int64{}}
}

// add folds in one finished run.
func (ss *stageStats) add(sr *stageRun) {
	for _, t := range sr.timers {
		ss.window[t.Name()] += t.window
		ss.total[t.Name()] += t.total
		ss.windowTicks[t.Name()] += t.windowTicks
	}
	f := sr.sim.Fabric
	ss.flitHops += windowFlitHops(f)
	ss.headers += f.HeadersRouted() - sr.start.headers
	ss.stalls += f.CreditStalls() - sr.start.stalls
	ss.created += f.Counters().PacketsCreated - sr.start.created
	ss.cycles += sr.sim.Engine.Cycle()
}

// stageTotal returns the summed all-cycle stage time.
func (ss *stageStats) stageTotal() int64 {
	var n int64
	for _, v := range ss.total {
		n += v
	}
	return n
}

// windowFlitHops sums Fabric.LinkFlits, which core resets when the
// measurement window opens.
func windowFlitHops(f *wormhole.Fabric) int64 {
	var n int64
	for r := 0; r < f.Top.Routers(); r++ {
		for p := 0; p < f.Top.Degree(); p++ {
			n += f.LinkFlits(r, p)
		}
	}
	return n
}

// setStageMetrics fills the wormhole and traffic per-layer metrics from
// ss. Per-flit-hop and per-header times use window time; per-cycle
// times divide by the stage's window ticks.
func setStageMetrics(rep *report, ss *stageStats) {
	per := func(stage string, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ss.window[stage]) / float64(n)
	}
	rep.set("wormhole.link_ns_per_flit_hop", per("link", ss.flitHops))
	rep.set("wormhole.crossbar_ns_per_flit_hop", per("crossbar", ss.flitHops))
	rep.set("wormhole.routing_ns_per_header", per("routing", ss.headers))
	rep.set("wormhole.injection_ns_per_cycle", per("injection", ss.windowTicks["injection"]))
	rep.set("wormhole.credits_ns_per_cycle", per("credits", ss.windowTicks["credits"]))
	rep.set("wormhole.fabric_ns_per_cycle", per("fabric", ss.windowTicks["fabric"]))
	rep.set("traffic.ns_per_cycle", per("traffic", ss.windowTicks["traffic"]))
	setShares(rep, ss)
	rep.set("wormhole.flit_hops", float64(ss.flitHops))
	rep.set("wormhole.headers_routed", float64(ss.headers))
	rep.set("wormhole.credit_stalls", float64(ss.stalls))
	rep.set("traffic.packets_created", float64(ss.created))
}

// setShares sets each stage's share of the summed window stage time.
func setShares(rep *report, ss *stageStats) {
	var sum int64
	for _, v := range ss.window {
		sum += v
	}
	for _, s := range stageNames {
		share := 0.0
		if sum > 0 {
			share = float64(ss.window[s]) / float64(sum)
		}
		rep.set("wormhole.stage_share."+s, share)
	}
}

// layerOf maps an engine stage to the module that implements it.
func layerOf(stage string) string {
	if stage == "traffic" {
		return "traffic"
	}
	return "wormhole"
}
