package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/store"
)

// gridSize is the shortened methodology of the paper-grid workload.
type gridSize struct{ warmup, horizon int64 }

var gridSizes = map[string]gridSize{
	"full": {warmup: 200, horizon: 1000},
	"tiny": {warmup: 40, horizon: 160},
}

// gridPatterns are the two traffic patterns of the grid: uniform, where
// the tree and cube differ by routing freedom, and transpose, where the
// cube's deterministic routing collapses.
var gridPatterns = []string{core.PatternUniform, core.PatternTranspose}

// saturationTolerance is the deficit threshold cmd/experiments' scorecard
// passes to metrics.Series.Saturation.
const saturationTolerance = 0.02

// gridLoads is cmd/experiments' -quick load range: 10% to 100% of
// capacity in 10% steps.
func gridLoads() []float64 {
	loads := make([]float64, 10)
	for i := range loads {
		loads[i] = float64(i+1) / 10
	}
	return loads
}

// sweepSpec is one (configuration, pattern) sweep of the grid.
type sweepSpec struct {
	base           core.Config
	batch          string
	pattern, label string
}

// gridSweeps returns the grid's sweeps in a seed-derived order. The
// simulation seed comes from the workload seed too; the order changes
// only how the grid schedules, never its results.
func gridSweeps(size string, seed uint64) []sweepSpec {
	sz := gridSizes[size]
	var out []sweepSpec
	for _, pat := range gridPatterns {
		for _, c := range core.PaperConfigs() {
			c.Pattern = pat
			c.Warmup, c.Horizon = sz.warmup, sz.horizon
			c.Seed = simSeed(seed)
			label := c.WithDefaults().Label()
			out = append(out, sweepSpec{base: c, batch: pat + "/" + label, pattern: pat, label: label})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gridOut is one pass over the grid.
type gridOut struct {
	wall    time.Duration
	recs    []obs.RunRecord
	results map[string][]core.Result // by batch
	// failed counts grid cells without a successful record.
	failed int64
}

func (g gridOut) digest() string { return obs.Digest(g.recs) }

// runWallsMS returns the per-run wall times core recorded.
func (g gridOut) runWallsMS() []float64 {
	out := make([]float64, 0, len(g.recs))
	for _, r := range g.recs {
		out = append(out, r.WallMS)
	}
	return out
}

// sweepGrid runs every sweep through core.SweepWith with w workers,
// reading through st when it is non-nil, and collects the manifest.
func sweepGrid(sweeps []sweepSpec, st *store.Store, w int) (gridOut, error) {
	var buf bytes.Buffer
	mw := obs.NewManifestWriter(&buf)
	out := gridOut{results: map[string][]core.Result{}}
	start := time.Now()
	for _, sw := range sweeps {
		// A failing cell leaves a failure record in the manifest; the
		// joined error adds nothing the records do not say.
		res, _ := core.SweepWith(sw.base, gridLoads(), w, core.Options{Store: st, Manifest: mw, Batch: sw.batch})
		out.results[sw.batch] = res
	}
	out.wall = time.Since(start)
	return out, out.decode(&buf, len(sweeps))
}

// decode reads the grid's manifest and counts cells without a
// successful record.
func (g *gridOut) decode(buf *bytes.Buffer, sweeps int) error {
	recs, err := obs.DecodeManifest(buf)
	if err != nil {
		return fmt.Errorf("decoding grid manifest: %w", err)
	}
	g.recs = recs
	ok := 0
	for _, r := range recs {
		if r.Failure == "" {
			ok++
		}
	}
	g.failed = int64(sweeps*len(gridLoads()) - ok)
	return nil
}

// satMAE is the mean absolute difference between measured and
// paper-quoted saturation over the grid's (pattern, configuration)
// cells, with saturation computed as the scorecard computes it.
func satMAE(sweeps []sweepSpec, results map[string][]core.Result, paper map[string]map[string]float64) (float64, error) {
	var sum float64
	for _, sw := range sweeps {
		want, ok := paper[sw.pattern][sw.label]
		if !ok {
			return 0, fmt.Errorf("no paper saturation for %s", sw.batch)
		}
		sat, _ := core.SeriesOf(results[sw.batch]).Saturation(saturationTolerance)
		sum += math.Abs(sat - want)
	}
	return sum / float64(len(sweeps)), nil
}

// checkGrid applies the grid's correctness gates to one pass.
func checkGrid(t *tally, what string, g gridOut, pin string) {
	t.ops(int64(len(g.recs))+g.failed, g.failed)
	for _, r := range g.recs {
		if r.Failure != "" {
			t.failures = append(t.failures, fmt.Sprintf("%s: %s#%d: %s", what, r.Batch, r.Index, r.Failure))
		}
	}
	t.check(g.digest() == pin, "%s: manifest digest %s, pinned %s", what, g.digest(), pin)
}

// withStore runs fn over a fresh store in a scratch directory.
func withStore(fn func(st *store.Store) error) error {
	dir, cleanup, err := workDir("store")
	if err != nil {
		return err
	}
	defer cleanup()
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	ferr := fn(st)
	if err := st.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// paperGrid is the paper-grid workload. Set-up assembles every run of
// the grid once, which is the assembly work a grid pass does inside
// core.SweepWith, made visible on its own; the measured phase repeats the whole grid
// from a fresh store until the time is up; a last, unmeasured pass runs
// the same grid with no store, whose digest every pass must equal.
func paperGrid(p params) (*report, error) {
	sweeps := gridSweeps(p.size, p.seed)
	cells := float64(len(sweeps) * len(gridLoads()))
	pin := p.pins.gridDigest(p.size, simSeed(p.seed))
	rep := newReport(p.trace)
	w := workers()

	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := time.Now()
		for _, sw := range sweeps {
			for _, load := range gridLoads() {
				cfg := sw.base
				cfg.Load = load
				if _, err := core.NewSimulationShards(cfg, 1); err != nil {
					return nil, fmt.Errorf("assembling %s at load %g: %w", sw.batch, load, err)
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))

	if p.trace {
		return rep, tracedGrid(p, rep, sweeps, pin)
	}

	var walls, runMS []float64
	var last gridOut
	begin := time.Now()
	for len(walls) == 0 || time.Since(begin).Seconds() < p.seconds {
		err := withStore(func(st *store.Store) error {
			g, err := sweepGrid(sweeps, st, w)
			last = g
			return err
		})
		if err != nil {
			return nil, err
		}
		checkGrid(&rep.tally, fmt.Sprintf("grid pass %d", len(walls)+1), last, pin)
		walls = append(walls, last.wall.Seconds())
		runMS = append(runMS, last.runWallsMS()...)
	}
	rep.set("heap_live_mb", liveHeapMB())
	mae, err := satMAE(sweeps, last.results, p.pins.PaperSaturation)
	if err != nil {
		return nil, err
	}

	bare, err := sweepGrid(sweeps, nil, w)
	if err != nil {
		return nil, err
	}
	checkGrid(&rep.tally, "grid without a store", bare, pin)
	rep.check(bare.digest() == last.digest(), "grid digest with a store %s differs from without %s", last.digest(), bare.digest())

	rep.set("work_per_s", cells/median(walls))
	rep.set("op_p50_ms", median(runMS))
	rep.aliases["grid_wall_s"] = median(walls)
	rep.aliases["grid_passes"] = float64(len(walls))
	rep.aliases["paper_sat_mae"] = mae
	rep.notef("paper-grid: %d passes of %.0f runs, grid wall %v s; paper saturation MAE %.4f", len(walls), cells, walls, mae)
	return rep, nil
}

// tracedGrid is the traced paper-grid run: one untraced pass through
// core.SweepWith for the tracing overhead and grid scheduling, one
// traced pass on the benchmark's own scheduler
// (the same per-sweep parallelism as core.SweepWith, with every engine
// instrumented), a replay of the grid against the now-warm store, and
// direct store reads and writes.
func tracedGrid(p params, rep *report, sweeps []sweepSpec, pin string) error {
	w := workers()
	cells := float64(len(sweeps) * len(gridLoads()))
	var plain gridOut
	if err := withStore(func(st *store.Store) error {
		var err error
		plain, err = sweepGrid(sweeps, st, w)
		return err
	}); err != nil {
		return err
	}
	checkGrid(&rep.tally, "untraced grid", plain, pin)

	rec := rep.rec
	return withStore(func(st *store.Store) error {
		before := memStats()
		tg, err := instrumentedGrid(rec, sweeps, st, w)
		if err != nil {
			return err
		}
		after := memStats()
		checkGrid(&rep.tally, "traced grid", tg.gridOut, pin)
		rep.failures = append(rep.failures, tg.errs...)
		setStageMetrics(rep, tg.stages)

		var replay gridOut
		rec.do("core.replay", "replay", 0, func(int64) { replay, err = sweepGrid(sweeps, st, w) })
		if err != nil {
			return err
		}
		checkGrid(&rep.tally, "grid replayed from the store", replay, pin)

		getUS, putUS, err := storeTimings(rec, &rep.tally, st, tg.recs, 20)
		if err != nil {
			return err
		}
		stats := st.Stats()
		mae, err := satMAE(sweeps, tg.results, p.pins.PaperSaturation)
		if err != nil {
			return err
		}

		runNS := sum(tg.runUS) * 1e3
		rep.set("core.assemble_ms", median(tg.assembleMS))
		rep.set("core.overhead_share", (runNS-float64(tg.stages.stageTotal()))/runNS)
		// Grid scheduling is measured on the untraced pass, which runs
		// on core.SweepWith's own scheduler: the share of worker time in
		// which no run was simulating, by the wall times core records.
		rep.set("core.grid_idle_share", 1-sum(plain.runWallsMS())*1e6/(float64(w)*float64(plain.wall)))
		rep.set("core.replay_us", float64(replay.wall.Microseconds())/cells)
		rep.set("core.paper_sat_mae", mae)
		rep.set("store.get_us_p50", quantile(getUS, 0.5))
		rep.set("store.get_us_p99", quantile(getUS, 0.99))
		rep.set("store.put_us", median(putUS))
		rep.set("store.bytes_per_record", float64(stats.Bytes)/float64(stats.Records))
		rep.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
		rep.set("go.alloc_bytes_per_cycle", float64(after.TotalAlloc-before.TotalAlloc)/float64(tg.stages.cycles))
		rep.set("trace.work_per_s_delta", cells/tg.wall.Seconds()-cells/plain.wall.Seconds())
		rep.zero("sim.shard_speedup", "wormhole.packets_retained", "wormhole.bytes_per_packet_retained")
		zeroServe(rep)

		rep.aliases["grid_wall_s"] = tg.wall.Seconds()
		rep.aliases["untraced_grid_wall_s"] = plain.wall.Seconds()
		rep.aliases["trace_overhead_s"] = tg.wall.Seconds() - plain.wall.Seconds()
		rep.notef("paper-grid traced: RunWith %.3f s = stages %.3f s + core overhead %.3f s; grid wall %.3f s traced, %.3f s untraced",
			runNS/1e9, float64(tg.stages.stageTotal())/1e9, (runNS-float64(tg.stages.stageTotal()))/1e9, tg.wall.Seconds(), plain.wall.Seconds())
		return nil
	})
}

// tracedGridOut is an instrumented grid pass.
type tracedGridOut struct {
	gridOut
	stages     *stageStats
	assembleMS []float64
	runUS      []float64 // Simulation.RunWith per cell
	errs       []string  // failed cells, which also lack a manifest record
}

// instrumentedGrid runs the grid cell by cell through the public pieces
// core.RunWith is made of (store read, core.NewSimulationShards,
// Simulation.RunWith), with each engine's stages wrapped through
// Engine.Instrument, w cells of a sweep at a time.
func instrumentedGrid(rec *recorder, sweeps []sweepSpec, st *store.Store, w int) (tracedGridOut, error) {
	var buf bytes.Buffer
	mw := obs.NewManifestWriter(&buf)
	out := tracedGridOut{gridOut: gridOut{results: map[string][]core.Result{}}, stages: newStageStats()}
	var mu sync.Mutex
	loads := gridLoads()
	start := time.Now()
	rec.do("bench.grid", "grid", 0, func(gid int64) {
		for _, sw := range sweeps {
			results := make([]core.Result, len(loads))
			rec.do("core.sweep", sw.batch, gid, func(sid int64) {
				next := make(chan int, len(loads))
				for i := range loads {
					next <- i
				}
				close(next)
				var wg sync.WaitGroup
				for k := 0; k < w; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range next {
							res, c, err := tracedCell(rec, sw, i, loads[i], st, mw, sid)
							mu.Lock()
							results[i] = res
							if err != nil {
								out.errs = append(out.errs, err.Error())
							}
							if c.sr != nil {
								out.stages.add(c.sr)
								out.assembleMS = append(out.assembleMS, c.assemble/1e3)
								out.runUS = append(out.runUS, c.run)
							}
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
			})
			out.results[sw.batch] = results
		}
	})
	out.wall = time.Since(start)
	return out, out.decode(&buf, len(sweeps))
}

// cellTimes are the span durations of one traced grid cell, in
// microseconds.
type cellTimes struct {
	sr            *stageRun
	assemble, run float64
}

func tracedCell(rec *recorder, sw sweepSpec, i int, load float64, st *store.Store, mw *obs.ManifestWriter, parent int64) (core.Result, cellTimes, error) {
	cfg := sw.base
	cfg.Load = load
	run := fmt.Sprintf("%s#%d", sw.batch, i)
	var res core.Result
	var ct cellTimes
	var err error
	rec.do("core.cell", run, parent, func(cid int64) {
		var hit bool
		rec.do("store.get", run, cid, func(int64) {
			_, _, hit, err = st.Get(cfg.WithDefaults().Fingerprint())
		})
		if err != nil || hit {
			err = fmt.Errorf("cell %s: store read on a fresh store: hit=%v err=%v", run, hit, err)
			return
		}
		var s *core.Simulation
		as := rec.do("core.assemble", run, cid, func(int64) { s, err = core.NewSimulationShards(cfg, 1) })
		ct.assemble = as.us()
		if err != nil {
			return
		}
		ct.sr = instrument(s)
		rs := rec.do("core.run", run, cid, func(int64) {
			res, err = s.RunWith(core.Options{Store: st, Manifest: mw, Batch: sw.batch, Index: i})
		})
		ct.run = rs.us()
		rec.stages(rs, ct.sr)
	})
	if err != nil {
		ct.sr = nil
	}
	return res, ct, err
}

// storeTimings times direct store reads of every record's fingerprint
// (rounds times each) and writes of the same records into a fresh store,
// in microseconds per call. A read that fails or misses is a failed
// operation.
func storeTimings(rec *recorder, t *tally, st *store.Store, recs []obs.RunRecord, rounds int) (getUS, putUS []float64, err error) {
	for r := 0; r < rounds; r++ {
		for _, x := range recs {
			var ok bool
			var gerr error
			sp := rec.do("store.get", "store-read", 0, func(int64) { _, _, ok, gerr = st.Get(x.Fingerprint) })
			getUS = append(getUS, sp.us())
			t.check(gerr == nil && ok, "direct store read of %s: ok=%v err=%v", x.Fingerprint, ok, gerr)
		}
	}
	err = withStore(func(fresh *store.Store) error {
		for _, x := range recs {
			var perr error
			sp := rec.do("store.put", "store-write", 0, func(int64) { _, perr = fresh.Put(x) })
			putUS = append(putUS, sp.us())
			if perr != nil {
				return perr
			}
		}
		return nil
	})
	return getUS, putUS, err
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
