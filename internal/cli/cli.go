// Package cli is the one path from a command's flags to core.Options.
// cmd/netsim registers the flags every simulating command shares with
// AddRunFlags; the grid commands (cmd/sweep, cmd/batch and
// cmd/experiments) register those plus the checkpoint flags with
// AddFlags, and add -manifest, and -store or -selfcheck where they take
// them, each with its own help text. Every command brackets its work
// with Open and Close.
//
// Open validates the flags and opens everything they ask for: the Go
// profilers, the signal context, the -v logger, progress line and
// stage profiler, the telemetry endpoint and sidecar, the manifest, and
// the result store that -checkpoint or -store names. Close shuts it all
// down in order and, when a checkpointed grid failed, says how to
// resume it.
//
// A -checkpoint is a result store (internal/store) the grid opened:
// every completed run is written to it as it finishes, and a rerun with
// -resume replays the stored runs instead of re-simulating them. A
// fresh run refuses a checkpoint that already holds results rather than
// deleting them.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// Flags are the options the commands share.
type Flags struct {
	Obs *obs.Flags
	// MetricsAddr is the address the live telemetry endpoint listens on
	// and Timeseries the JSONL sidecar file each run's series is written
	// to ("" disables either); SampleEvery is their sampling cadence in
	// cycles.
	MetricsAddr string
	Timeseries  string
	SampleEvery int64
	Shards      int
	// Checkpoint names the result store directory the grid keeps its
	// completed runs in ("" disables it); Resume continues a grid whose
	// runs are already stored there. AddFlags registers both.
	Checkpoint string
	Resume     bool
	// Watchdog is the no-progress cycle budget the grid commands apply
	// to configs that do not set their own; 0 disables the watchdog.
	Watchdog int64
	// Manifest, Store and SelfCheck are registered by the commands that
	// take them.
	Manifest  string
	Store     string
	SelfCheck bool

	stderr io.Writer
}

// AddRunFlags registers the observability, telemetry and sharding flags
// every simulating command shares on fs. The session reports to fs's
// output.
func AddRunFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Obs: obs.AddFlags(fs), stderr: fs.Output()}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live telemetry on this `address` (/metrics Prometheus text, /telemetry.json)")
	fs.Int64Var(&f.SampleEvery, "sample-every", telemetry.DefaultEvery, "telemetry sampling cadence in `cycles`")
	fs.StringVar(&f.Timeseries, "timeseries", "", "write each run's time series to this JSONL `file` (schema "+telemetry.Schema+")")
	fs.IntVar(&f.Shards, "shards", 1, "fabric shards per run (0 = auto from network size and GOMAXPROCS; results are bit-identical)")
	return f
}

// AddFlags registers the grid commands' flags on fs: AddRunFlags's plus
// -checkpoint, -resume and -watchdog.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := AddRunFlags(fs)
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "keep completed runs in a result store at this `directory` as they finish")
	fs.BoolVar(&f.Resume, "resume", false, "replay the runs the -checkpoint store already holds instead of re-running them")
	fs.Int64Var(&f.Watchdog, "watchdog", resilience.DefaultWatchdogCycles, "abort a run after this many `cycles` without progress (0 disables)")
	return f
}

// Session is one open command invocation.
type Session struct {
	// Options carries every observer the flags asked for; pass it (or a
	// copy with Batch set) to the grid.
	Options core.Options

	name       string
	stderr     io.Writer
	checkpoint string
	stopSignal context.CancelFunc
	stopProf   func() error
	listener   net.Listener
	manifest   *os.File
	closed     bool
}

// Open validates the flags and opens what they ask for. name prefixes
// every message; runs and every size and pace the progress line.
func (f *Flags) Open(name string, runs int, every time.Duration) (*Session, error) {
	if f.SampleEvery <= 0 {
		return nil, fmt.Errorf("-sample-every must be a positive number of cycles, got %d", f.SampleEvery)
	}
	if f.Resume && f.Checkpoint == "" {
		return nil, errors.New("-resume requires -checkpoint")
	}
	if f.Checkpoint != "" && f.Store != "" {
		return nil, errors.New("-checkpoint and -store are mutually exclusive: a checkpoint is itself a result store")
	}
	if fi, err := os.Stat(f.Checkpoint); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("-checkpoint %s is a file: a checkpoint is now a result store directory, so an old JSONL journal cannot be reused; pick a new path", f.Checkpoint)
	}
	stopProf, err := f.Obs.Start()
	if err != nil {
		return nil, err
	}
	ctx, stopSignal := resilience.SignalContext(context.Background())
	s := &Session{
		Options:    core.Options{Logger: f.Obs.Logger(), Context: ctx, SelfCheck: f.SelfCheck, Shards: f.Shards},
		name:       name,
		stderr:     f.stderr,
		checkpoint: f.Checkpoint,
		stopSignal: stopSignal,
		stopProf:   stopProf,
	}
	if err := s.open(f, runs, every); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

// open attaches the store, progress, telemetry and manifest to s.
func (s *Session) open(f *Flags, runs int, every time.Duration) error {
	dir := f.Checkpoint
	if dir == "" {
		dir = f.Store
	}
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		s.Options.Store = st
		switch {
		case f.Store != "":
			fmt.Fprintf(s.stderr, "%s: store %s holds %d results\n", s.name, dir, st.Len())
		case !f.Resume && st.Len() > 0:
			return fmt.Errorf("checkpoint %s already holds %d results; pass -resume to continue that grid, or pick a new path", dir, st.Len())
		case f.Resume && st.Len() > 0:
			fmt.Fprintf(s.stderr, "%s: resuming past %d checkpointed runs in %s\n", s.name, st.Len(), dir)
		}
	}
	if f.Obs.Verbose {
		s.Options.Profiler = obs.NewStageProfiler()
		s.Options.Progress = obs.NewProgress(s.stderr, runs, every)
		s.Options.Progress.Start()
	}
	if f.MetricsAddr != "" || f.Timeseries != "" {
		tel := &telemetry.Options{Every: f.SampleEvery}
		s.Options.Telemetry = tel
		if f.MetricsAddr != "" {
			tel.Server = telemetry.NewServer()
			_, ln, err := obs.Listen(f.MetricsAddr, tel.Server.Handler())
			if err != nil {
				return fmt.Errorf("telemetry: listening on %s: %w", f.MetricsAddr, err)
			}
			s.listener = ln
			// Grid progress is served even without -v: an unstarted
			// Progress never prints but still snapshots.
			if s.Options.Progress == nil {
				s.Options.Progress = obs.NewProgress(s.stderr, runs, every)
			}
			tel.Server.SetProgress(s.Options.Progress)
			fmt.Fprintf(s.stderr, "%s: serving telemetry on http://%s/metrics\n", s.name, ln.Addr())
		}
		if f.Timeseries != "" {
			sc, err := telemetry.OpenSidecar(f.Timeseries)
			if err != nil {
				return err
			}
			tel.Sidecar = sc
		}
	}
	if f.Manifest != "" {
		var err error
		if s.manifest, err = os.Create(f.Manifest); err != nil {
			return err
		}
		s.Options.Manifest = obs.NewManifestWriter(s.manifest)
	}
	return nil
}

// Close ends the session after the grid: it stops the progress line,
// closes and syncs the result store, the telemetry sidecar and
// endpoint and the manifest, prints the -v stage report, and stops the
// profilers. runErr is the grid's outcome. If it or any close failed,
// Close prints the error under the command's name and, when a
// -checkpoint was set, the hint that a rerun with -resume continues
// the grid, and returns the error. Calling Close again only reports.
func (s *Session) Close(runErr error) error {
	err := runErr
	if !s.closed {
		s.closed = true
		if cerr := s.shutdown(); err == nil {
			err = cerr
		}
		if s.Options.Profiler != nil {
			fmt.Fprintln(s.stderr)
			fmt.Fprintln(s.stderr, "per-stage engine timing (hottest first):")
			fmt.Fprint(s.stderr, obs.FormatStageReport(s.Options.Profiler.Report()))
		}
	}
	if err != nil {
		fmt.Fprintf(s.stderr, "%s: %v\n", s.name, err)
		if s.checkpoint != "" {
			fmt.Fprintf(s.stderr, "%s: checkpoint %s holds %d completed runs; rerun with -resume to continue\n", s.name, s.checkpoint, s.Options.Store.Len())
		}
	}
	return err
}

// Fatal closes the session with err and exits with status 1.
func (s *Session) Fatal(err error) {
	s.Close(err)
	os.Exit(1)
}

// shutdown releases everything Open acquired, in order, and returns the
// first error.
func (s *Session) shutdown() error {
	var errs []error
	s.Options.Progress.Stop()
	if s.Options.Store != nil {
		errs = append(errs, s.Options.Store.Close())
	}
	if s.listener != nil {
		errs = append(errs, s.listener.Close())
	}
	if t := s.Options.Telemetry; t != nil && t.Sidecar != nil {
		errs = append(errs, t.Sidecar.Close())
	}
	if s.manifest != nil {
		errs = append(errs, s.manifest.Close())
	}
	errs = append(errs, s.stopProf())
	s.stopSignal()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
