package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/sim"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// Options threads the observability spine (internal/obs) through the
// experiment layer. Every field is optional; the zero value is the
// uninstrumented fast path, so a run or grid with zero Options costs
// nothing extra when nobody is watching.
type Options struct {
	// Logger receives structured run events, scoped per run with the
	// config fingerprint, label, pattern, seed and load attached once.
	Logger *slog.Logger
	// Profiler, when set, is attached to every simulation's engine and
	// accumulates per-stage wall time across the whole workload.
	Profiler *obs.StageProfiler
	// Progress, when set, is notified as runs complete.
	Progress *obs.Progress
	// Manifest, when set, receives one JSONL record per completed run.
	Manifest *obs.ManifestWriter
	// Store, when set, is a persistent read-through result cache keyed
	// by config fingerprint (internal/store): a config the store holds
	// is not re-run — its cached record is digest-verified, re-stamped
	// with this run's Batch/Index position, and replayed into the
	// manifest — and every completed run is written back as it
	// finishes. It is also the resume half of the kill-and-resume
	// contract: a command's -checkpoint is a store the grid opened.
	Store *store.Store
	// Context, when set, interrupts a grid: runs not yet started when it
	// is cancelled are skipped (reported as interrupted, not failed),
	// while in-flight runs complete and reach the store.
	Context context.Context
	// Batch and Index stamp manifest records and errors with the run's
	// position in an enclosing study; RunGrid replaces them with each
	// GridRun's own.
	Batch string
	Index int
	// SelfCheck shadows every run with the reference oracle simulator
	// (internal/oracle) in lockstep and fails it at the first cycle whose
	// state diverges — see Simulation.RunSelfChecked for the cost model.
	SelfCheck bool
	// Telemetry, when set, attaches a flight-recorder sampler to every
	// run: live state on the HTTP endpoint, one time-series record per
	// run in the JSONL sidecar, stored with the run's record when a
	// Store is set. Sampling is observation-only — it cannot change
	// simulated behavior (the golden fixtures pin this).
	Telemetry *telemetry.Options
	// Shards partitions each run's fabric for parallel cycle execution:
	// 1 (and any negative value) is the sequential engine, 0 picks an
	// automatic count from GOMAXPROCS and the fabric size, larger values
	// are explicit. Results are bit-identical for every value; the
	// effective count is recorded in the manifest as a log-only field
	// that the digest ignores, so stored runs replay across shard
	// counts.
	Shards int
}

// observed reports whether any observer is attached.
func (o Options) observed() bool {
	return o.Logger != nil || o.Profiler != nil || o.Progress != nil || o.Manifest != nil || o.Store != nil || o.Telemetry != nil
}

// RunWith executes one experiment with the paper's methodology under the
// given observers. With zero Options it is exactly Run. A config whose
// fingerprint the store holds is not re-run: the cached record and
// series — stored position-free, since the store is addressed by config
// content — are re-stamped with this run's Batch and Index and replayed
// into the manifest and sidecar, so a read-through or resumed grid's
// outputs digest identically to an uncached one's.
func RunWith(cfg Config, opts Options) (Result, error) {
	if opts.Store != nil {
		full := cfg.WithDefaults()
		e, ok, err := opts.Store.Lookup(full.Fingerprint())
		if err != nil {
			return Result{}, fmt.Errorf("core: store read for %s: %w", full.Fingerprint(), err)
		}
		if ok {
			return replayRun(full, e, opts)
		}
	}
	s, err := NewSimulationShards(cfg, opts.Shards)
	if err != nil {
		if opts.Logger != nil {
			opts.Logger.Error("simulation assembly failed",
				"cfg", cfg.Fingerprint(), "err", err)
		}
		return Result{}, err
	}
	return s.RunWith(opts)
}

// replayRun reconstructs a cached run's Result and re-emits its
// manifest record and, when a sidecar is open and the entry has one,
// its series, so a resumed grid's outputs are indistinguishable (modulo
// wall time and completion order) from an uninterrupted one's. A series
// replays at the cadence it was recorded at, which its Every field
// records.
func replayRun(cfg Config, e store.Entry, opts Options) (Result, error) {
	rec := e.Record
	rec.Batch, rec.Index = opts.Batch, opts.Index
	res, err := ResultFromRecord(rec)
	if err != nil {
		return Result{}, fmt.Errorf("core: replaying cached run %s: %w", rec.Fingerprint, err)
	}
	if logger := obs.RunLogger(opts.Logger, cfg.Fingerprint(), cfg.Label(), cfg.Pattern, cfg.Seed, cfg.Load); logger != nil {
		logger.Info("run replayed from cache", "source", "store", "cycles", rec.Cycles)
	}
	if opts.Progress != nil {
		opts.Progress.RunDone(cfg.Load, rec.Cycles)
	}
	var series *telemetry.Record
	if len(e.Series) > 0 && opts.Telemetry != nil && opts.Telemetry.Sidecar != nil {
		series = new(telemetry.Record)
		if err := json.Unmarshal(e.Series, series); err != nil {
			return res, fmt.Errorf("core: replaying series of %s: %w", rec.Fingerprint, err)
		}
		series.Batch, series.Index = opts.Batch, opts.Index
	}
	return res, emit(rec, series, opts)
}

// RunWith executes the assembled experiment under the given observers.
func (s *Simulation) RunWith(opts Options) (Result, error) {
	run := s.Run
	if opts.SelfCheck {
		run = s.RunSelfChecked
	}
	if !opts.observed() {
		return run()
	}
	cfg := s.Config
	logger := obs.RunLogger(opts.Logger, cfg.Fingerprint(), cfg.Label(), cfg.Pattern, cfg.Seed, cfg.Load)
	if opts.Profiler != nil {
		opts.Profiler.Attach(s.Engine)
	}
	var sampler *telemetry.Sampler
	if opts.Telemetry != nil {
		// Registered after the fabric's stages, so each sample reads
		// complete end-of-cycle state.
		sampler = telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{
			Batch:       opts.Batch,
			Index:       opts.Index,
			Label:       cfg.Label(),
			Pattern:     cfg.Pattern,
			Seed:        cfg.Seed,
			Load:        cfg.Load,
			Fingerprint: cfg.Fingerprint(),
		}, opts.Telemetry.Every)
		sampler.Register(s.Engine)
		opts.Telemetry.Server.Attach(sampler)
	}
	if logger != nil {
		logger.Debug("run starting", "warmup", cfg.Warmup, "horizon", cfg.Horizon)
	}
	elapsed := obs.Stopwatch()
	res, err := run()
	wall := elapsed()
	cycles := s.Engine.Cycle()
	var series *telemetry.Record
	if sampler != nil {
		series = finishTelemetry(sampler, opts.Telemetry, err)
	}
	if err != nil {
		if logger != nil {
			logger.Error("run failed", "err", err, "wall_ms", wallMS(wall))
		}
		if series != nil {
			// A failed run's recording is the interesting one, so it
			// reaches the sidecar, but never the store. The run's own
			// error is what the caller reports, so a write error is
			// dropped in its favor.
			_ = opts.Telemetry.Sidecar.Write(*series)
		}
		return res, err
	}
	if logger != nil {
		logger.Info("run complete",
			"cycles", cycles,
			"wall_ms", wallMS(wall),
			"cycles_per_sec", float64(cycles)/wall.Seconds(),
			"accepted", res.Sample.Accepted,
			"latency_cycles", res.Sample.AvgLatency)
	}
	if opts.Progress != nil {
		opts.Progress.RunDone(cfg.Load, cycles)
	}
	rec, err := runRecord(res, cycles, wall, s.Shards, opts)
	if err != nil {
		return res, fmt.Errorf("core: run manifest: %w", err)
	}
	// Store first, in one line with the series: a kill before the
	// manifest or sidecar line leaves a run the store replays, never a
	// line the store forgot.
	if opts.Store != nil {
		var raw []byte
		if series != nil {
			canon := *series
			canon.Batch, canon.Index = "", 0
			if raw, err = json.Marshal(canon); err != nil {
				return res, fmt.Errorf("core: encoding series: %w", err)
			}
		}
		if _, err := opts.Store.PutSeries(rec, raw); err != nil {
			return res, fmt.Errorf("core: run manifest: %w", err)
		}
	}
	return res, emit(rec, series, opts)
}

// emit writes a completed run's manifest record and then, when there is
// one, its series to the sidecar.
func emit(rec obs.RunRecord, series *telemetry.Record, opts Options) error {
	if opts.Manifest != nil {
		if err := opts.Manifest.Write(rec); err != nil {
			return fmt.Errorf("core: run manifest: %w", err)
		}
	}
	if series != nil {
		if err := opts.Telemetry.Sidecar.Write(*series); err != nil {
			return fmt.Errorf("core: telemetry sidecar: %w", err)
		}
	}
	return nil
}

// finishTelemetry settles a run's flight recorder: the terminal stall
// event if the watchdog fired, a forced final sample, and detachment
// from the live endpoint. It returns the run's sidecar record, or nil
// when no sidecar is open.
func finishTelemetry(sp *telemetry.Sampler, t *telemetry.Options, runErr error) *telemetry.Record {
	failure := ""
	if runErr != nil {
		failure = failureText(runErr)
		var st *sim.StallError
		if errors.As(runErr, &st) {
			sp.NoteStall(st)
		}
	}
	sp.Finish(failure)
	t.Server.Detach(sp, runErr != nil)
	if t.Sidecar == nil {
		return nil
	}
	rec := telemetry.RecordOf(sp)
	return &rec
}

// runRecord assembles the manifest line for one completed run. The
// effective shard count is recorded only when the run was actually
// sharded, so sequential manifests stay byte-identical with earlier
// versions; either way the field is log-only (the digest zeroes it).
func runRecord(res Result, cycles int64, wall time.Duration, shards int, opts Options) (obs.RunRecord, error) {
	cfg := res.Config
	raw, err := json.Marshal(cfg)
	if err != nil {
		return obs.RunRecord{}, err
	}
	rec := obs.RunRecord{
		Schema:      obs.RunSchema,
		Batch:       opts.Batch,
		Index:       opts.Index,
		Label:       cfg.Label(),
		Pattern:     cfg.Pattern,
		Seed:        cfg.Seed,
		Load:        cfg.Load,
		Fingerprint: cfg.Fingerprint(),
		Config:      raw,
		Sample:      res.Sample,
		Cycles:      cycles,
		WallMS:      wallMS(wall),
		Faults:      cfg.Faults,
	}
	if shards > 1 {
		rec.Shards = shards
	}
	return rec, nil
}

func wallMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// SweepWith runs the configuration at each offered load, in parallel
// across min(workers, len(loads)) goroutines (each simulation is an
// independent deterministic function of its config), and returns
// results ordered as the loads. It is RunGrid over one batch: every run
// is stamped with opts.Batch, and its Index is the load's position in
// the sweep.
func SweepWith(base Config, loads []float64, workers int, opts Options) ([]Result, error) {
	if opts.Logger != nil {
		opts.Logger.Info("sweep starting",
			"cfg", base.Fingerprint(), "label", base.WithDefaults().Label(),
			"runs", len(loads), "workers", workers)
	}
	runs := make([]GridRun, len(loads))
	for i, load := range loads {
		cfg := base
		cfg.Load = load
		runs[i] = GridRun{Config: cfg, Batch: opts.Batch, Index: i}
	}
	return RunGrid(runs, workers, opts)
}

// GridRun is one point of a grid: the configuration to run and the
// position it is stamped with in manifest records, events and errors.
type GridRun struct {
	Config Config
	Batch  string
	Index  int
}

// RunGrid executes every run under observers, in parallel across at most
// workers goroutines, and returns results in run order. Each run
// replaces opts' Batch and Index with its own, so one grid can hold
// several studies: the Progress reporter sees every completed run, the
// Manifest gets one record per run, and the Profiler aggregates stage
// time across all parallel engines. A failing run does not abort the
// grid: every run executes (panics included — they are isolated to
// their own slot), each failure's error carries the run's batch, index,
// load and fingerprint and how many runs completed, the same context is
// emitted as a structured event and a manifest failure record, and all
// failures come back joined alongside the results that did complete
// (failed slots hold zero Results).
func RunGrid(runs []GridRun, workers int, opts Options) ([]Result, error) {
	results, errs := runAll(opts.Context, len(runs), workers, func(i int) (Result, error) {
		o := opts
		o.Batch, o.Index = runs[i].Batch, runs[i].Index
		return RunWith(runs[i].Config, o)
	})
	return results, finishGrid(opts, runs, errs)
}

// runAll executes n indexed runs across at most workers goroutines and
// returns results and errors in index order. A panicking run is
// contained: it fails its own slot (with the stack attached) and the
// rest of the grid proceeds. Once ctx is cancelled, runs that have not
// started are skipped with a context error; in-flight runs complete.
func runAll(ctx context.Context, n, workers int, run func(i int) (Result, error)) ([]Result, []error) {
	if workers < 1 {
		workers = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- struct{}{} }()
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("not started: %w", err)
				return
			}
			errs[i] = resilience.Run(func() error {
				var err error
				results[i], err = run(i)
				return err
			})
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return results, errs
}

// finishGrid settles a grid's per-run errors after runAll: each failure
// is wrapped with its run's position, logged, and written to the
// manifest as a failure record, and the joined error is returned. Runs
// skipped by a cancelled context appear in the error but not in the
// manifest — they were interrupted, not failed, and a resumed
// invocation completes them.
func finishGrid(opts Options, runs []GridRun, errs []error) error {
	completed := 0
	for _, err := range errs {
		if err == nil {
			completed++
		}
	}
	var failures []error
	for i, err := range errs {
		if err == nil {
			continue
		}
		r := runs[i]
		failures = append(failures, fmt.Errorf("core: batch %q config %d (load %g, fingerprint %s, after %d/%d runs completed): %w",
			r.Batch, r.Index, r.Config.Load, r.Config.Fingerprint(), completed, len(errs), err))
		if errors.Is(err, context.Canceled) {
			continue
		}
		if opts.Logger != nil {
			opts.Logger.Error("batch config failed",
				"batch", r.Batch, "index", r.Index, "cfg", r.Config.Fingerprint(),
				"completed", completed, "total", len(errs), "err", err)
		}
		if opts.Manifest != nil {
			if werr := opts.Manifest.Write(failureRecord(r.Config, r.Index, r.Batch, err)); werr != nil {
				failures = append(failures, fmt.Errorf("core: failure manifest record %d: %w", r.Index, werr))
			}
		}
	}
	return errors.Join(failures...)
}

// failureRecord assembles the manifest line for a failed run. Position
// context lives in the record's own fields and a panic's stack is
// log-only: the failure field must render deterministically across
// invocations for manifest digests to be comparable.
func failureRecord(cfg Config, index int, batch string, err error) obs.RunRecord {
	full := cfg.WithDefaults()
	raw, merr := json.Marshal(full)
	if merr != nil {
		raw = nil
	}
	return obs.RunRecord{
		Schema:      obs.RunSchema,
		Batch:       batch,
		Index:       index,
		Label:       full.Label(),
		Pattern:     full.Pattern,
		Seed:        full.Seed,
		Load:        full.Load,
		Fingerprint: full.Fingerprint(),
		Config:      raw,
		Failure:     failureText(err),
		Faults:      full.Faults,
	}
}

// failureText renders err for a manifest failure record.
func failureText(err error) string {
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	return err.Error()
}
