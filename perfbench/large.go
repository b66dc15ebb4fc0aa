package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"smart/internal/core"
	"smart/internal/sim"
)

// largeConfig is the large-fabric run: a 4096-node 16-ary 3-cube with
// Duato routing at 40% of capacity, below its saturation, so every
// cycle moves a steady amount of traffic through the sharded engine.
func largeConfig(size string, seed uint64) core.Config {
	cfg := core.Config{
		Network: core.NetworkCube, K: 16, N: 3, Algorithm: core.AlgDuato, VCs: 4,
		Pattern: core.PatternUniform, Load: 0.4, Seed: simSeed(seed),
		Warmup: 200, Horizon: 1500,
	}
	if size == "tiny" {
		cfg.K, cfg.N = 8, 2
		cfg.Warmup, cfg.Horizon = 40, 200
	}
	return cfg
}

// chunkCycles is how many cycles one op_p50_ms sample spans.
const chunkCycles = 64

// chunkClock wraps the engine's first stage and stamps the wall clock
// every chunkCycles cycles: one clock read per chunk, no per-stage
// timing.
type chunkClock struct {
	sim.Stage
	last  time.Time
	msPer []float64 // milliseconds per cycle, one entry per chunk
}

func (c *chunkClock) Tick(cycle int64) {
	if cycle%chunkCycles == 0 {
		now := time.Now()
		if !c.last.IsZero() {
			c.msPer = append(c.msPer, float64(now.Sub(c.last).Nanoseconds())/1e6/chunkCycles)
		}
		c.last = now
	}
	c.Stage.Tick(cycle)
}

// largeRun is one measured large-fabric run.
type largeRun struct {
	s     *core.Simulation
	wall  time.Duration
	chunk *chunkClock
}

// runLarge runs an assembled simulation through Simulation.RunWith.
// With clock set, the first stage is wrapped in a chunkClock.
func runLarge(s *core.Simulation, clock bool) (largeRun, error) {
	lr := largeRun{s: s}
	if clock {
		first := true
		s.Engine.Instrument(func(st sim.Stage) sim.Stage {
			if !first {
				return nil
			}
			first = false
			lr.chunk = &chunkClock{Stage: st}
			return lr.chunk
		})
	}
	start := time.Now()
	_, err := s.RunWith(core.Options{})
	lr.wall = time.Since(start)
	return lr, err
}

func (lr largeRun) cyclesPerS() float64 {
	return float64(lr.s.Engine.Cycle()) / lr.wall.Seconds()
}

// pinOf extracts the pinned outcome of a finished run.
func pinOf(s *core.Simulation) (largePin, error) {
	sample, err := s.Window.Measure(s.Config.Horizon, s.Config.Load)
	if err != nil {
		return largePin{}, err
	}
	return largePin{Counters: s.Fabric.Counters(), Sample: sample}, nil
}

// checkLarge compares a finished run with the pin: Counters exactly,
// the measured Sample field for field (through its JSON encoding, which
// round-trips every float64 exactly).
func checkLarge(t *tally, what string, s *core.Simulation, pin largePin) {
	got, err := pinOf(s)
	if !t.check(err == nil, "%s: measuring: %v", what, err) {
		return
	}
	t.check(got.Counters == pin.Counters, "%s: counters %+v, pinned %+v", what, got.Counters, pin.Counters)
	a, _ := json.Marshal(got.Sample)
	b, _ := json.Marshal(pin.Sample)
	t.check(string(a) == string(b), "%s: sample %s, pinned %s", what, a, b)
}

// largeReference runs the large fabric of a workload seed sequentially
// for the pin.
func largeReference(size string, seed uint64) (largePin, error) {
	s, err := core.NewSimulationShards(largeConfig(size, seed), 1)
	if err != nil {
		return largePin{}, err
	}
	if _, err := s.Run(); err != nil {
		return largePin{}, err
	}
	return pinOf(s)
}

// assemble builds the large fabric on the given shard count, timed.
func assemble(cfg core.Config, shards int) (*core.Simulation, time.Duration, error) {
	start := time.Now()
	s, err := core.NewSimulationShards(cfg, shards)
	return s, time.Since(start), err
}

// largeFabric is the large-fabric workload. Set-up is assembly (the
// median of every assembly in the run, at least setupSamples); the measured
// phase repeats the run, warm-up included, until the time is up.
func largeFabric(p params) (*report, error) {
	cfg := largeConfig(p.size, p.seed)
	pin := p.pins.largeFabric(p.size, simSeed(p.seed))
	rep := newReport(p.trace)
	shards := workers()

	var setups []float64
	var s *core.Simulation
	for i := 0; i < setupSamples; i++ {
		s = nil
		runtime.GC()
		var d time.Duration
		var err error
		if s, d, err = assemble(cfg, shards); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if p.trace {
		rep.set("setup_s", median(setups))
		return rep, tracedLarge(rep, cfg, pin, s, setups)
	}

	var rates, msPerCycle []float64
	begin := time.Now()
	for {
		lr, err := runLarge(s, true)
		if !rep.check(err == nil, "large-fabric run: %v", err) {
			break
		}
		rep.ops(lr.s.Engine.Cycle(), 0)
		checkLarge(&rep.tally, fmt.Sprintf("large-fabric pass %d (%d shards)", len(rates)+1, s.Shards), s, pin)
		rates = append(rates, lr.cyclesPerS())
		msPerCycle = append(msPerCycle, lr.chunk.msPer...)
		if time.Since(begin).Seconds() >= p.seconds {
			break
		}
		s = nil
		runtime.GC()
		var d time.Duration
		if s, d, err = assemble(cfg, shards); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	rep.set("heap_live_mb", liveHeapMB())
	runtime.KeepAlive(s)
	rep.set("setup_s", median(setups))
	rep.set("work_per_s", median(rates))
	rep.set("op_p50_ms", median(msPerCycle))
	rep.aliases["cycles_per_s"] = median(rates)
	rep.aliases["large_passes"] = float64(len(rates))
	rep.notef("large-fabric: %d passes of %d cycles on %d shards, median %.1f cycles/s", len(rates), cfg.Horizon, s.Shards, median(rates))
	return rep, nil
}

// tracedLarge is the traced large-fabric run: an untraced run (the
// tracing-overhead base and the retained-memory measurement), the same
// run with its stages instrumented, and the run on one shard with every
// fabric stage instrumented (the shard speed-up base). All three must
// match the pin.
func tracedLarge(rep *report, cfg core.Config, pin largePin, s *core.Simulation, setups []float64) error {
	rec := rep.rec
	shards := workers()
	heapAssembled := liveHeapMB()
	plain, err := runLarge(s, false)
	if !rep.check(err == nil, "untraced large-fabric run: %v", err) {
		return nil
	}
	checkLarge(&rep.tally, "untraced large-fabric run", s, pin)
	heapRun := liveHeapMB()
	packets := len(s.Fabric.PacketRecords())
	runtime.KeepAlive(s)
	plainRate := plain.cyclesPerS()
	s, plain = nil, largeRun{}

	assembleMS := []float64{}
	for _, x := range setups {
		assembleMS = append(assembleMS, x*1e3)
	}
	// tracedRun assembles and runs the fabric on n shards with every
	// stage instrumented; a nil result means the run failed its gate.
	tracedRun := func(n int, name string) (*tracedLargeRun, error) {
		var sm *core.Simulation
		var d time.Duration
		var aerr error
		rec.do("core.assemble", name, 0, func(int64) { sm, d, aerr = assemble(cfg, n) })
		if aerr != nil {
			return nil, aerr
		}
		assembleMS = append(assembleMS, d.Seconds()*1e3)
		sr := instrument(sm)
		tr := &tracedLargeRun{ss: newStageStats(), before: memStats()}
		var rerr error
		rs := rec.do("core.run", name, 0, func(int64) { _, rerr = sm.RunWith(core.Options{}) })
		tr.wall = time.Duration(rs.End - rs.Start)
		tr.after = memStats()
		rec.stages(rs, sr)
		if !rep.check(rerr == nil, "%s: %v", name, rerr) {
			return nil, nil
		}
		checkLarge(&rep.tally, name, sm, pin)
		tr.ss.add(sr)
		return tr, nil
	}
	trN, err := tracedRun(shards, fmt.Sprintf("traced run on %d shards", shards))
	if err != nil || trN == nil {
		return err
	}
	tr1, err := tracedRun(1, "traced run on 1 shard")
	if err != nil || tr1 == nil {
		return err
	}
	ssN, ss1 := trN.ss, tr1.ss

	setStageMetrics(rep, ss1)
	setShares(rep, ssN)
	fabric := ssN.window["fabric"]
	if shards == 1 {
		// One shard registers the sequential stages, not "fabric".
		for _, st := range stageNames[:5] {
			fabric += ssN.window[st]
		}
	}
	var seq int64
	for _, st := range stageNames[:5] {
		seq += ss1.window[st]
	}
	rep.set("wormhole.fabric_ns_per_cycle", float64(fabric)/float64(ssN.windowTicks["traffic"]))
	rep.set("traffic.ns_per_cycle", float64(ssN.window["traffic"])/float64(ssN.windowTicks["traffic"]))
	rep.set("sim.shard_speedup", float64(seq)/float64(fabric))
	rep.set("wormhole.packets_retained", float64(packets))
	rep.set("wormhole.bytes_per_packet_retained", (heapRun-heapAssembled)*1e6/float64(packets))
	rep.set("core.assemble_ms", median(assembleMS))
	rep.set("core.overhead_share", 1-float64(ssN.stageTotal())/float64(trN.wall))
	rep.set("go.gc_cycles", float64(trN.after.NumGC-trN.before.NumGC))
	rep.set("go.alloc_bytes_per_cycle", float64(trN.after.TotalAlloc-trN.before.TotalAlloc)/float64(ssN.cycles))
	rate := float64(ssN.cycles) / trN.wall.Seconds()
	rep.set("trace.work_per_s_delta", rate-plainRate)
	rep.zero("core.grid_idle_share", "core.replay_us", "core.paper_sat_mae",
		"store.get_us_p50", "store.get_us_p99", "store.put_us", "store.bytes_per_record")
	zeroServe(rep)
	rep.aliases["cycles_per_s"] = plainRate
	rep.aliases["traced_cycles_per_s"] = rate
	rep.notef("large-fabric traced: %d packets retained, heap %.1f MB assembled, %.1f MB after the run", packets, heapAssembled, heapRun)
	return nil
}

// tracedLargeRun is one instrumented large-fabric run.
type tracedLargeRun struct {
	ss            *stageStats
	wall          time.Duration
	before, after runtime.MemStats
}
