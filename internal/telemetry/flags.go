package telemetry

import (
	"flag"
	"fmt"
	"net"

	"smart/internal/obs"
)

// Flags carries the telemetry command-line options shared by the
// commands: -metrics-addr for the live HTTP endpoint, -timeseries for
// the JSONL sidecar, -sample-every for the cadence.
type Flags struct {
	MetricsAddr string
	SampleEvery int64
	SidecarPath string
}

// AddFlags registers -metrics-addr, -sample-every and -timeseries on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live telemetry on this `address` (/metrics Prometheus text, /telemetry.json)")
	fs.Int64Var(&f.SampleEvery, "sample-every", 100, "telemetry sampling cadence in `cycles`")
	fs.StringVar(&f.SidecarPath, "timeseries", "", "write each run's time series to this JSONL `file` (schema "+Schema+")")
	return f
}

// Enabled reports whether any telemetry sink was requested.
func (f *Flags) Enabled() bool {
	return f.MetricsAddr != "" || f.SidecarPath != ""
}

// Options is the assembled telemetry configuration the experiment layer
// (core.Options.Telemetry) consumes: where live state is served, where
// series are written, and how samplers are tuned. Either sink may be
// nil.
type Options struct {
	Server  *Server
	Sidecar *Sidecar
	Config  Config
}

// Open materializes the sinks the flags describe, or nil when telemetry
// is off. The sidecar is created fresh, like the manifest. The returned
// stop function closes the listener and syncs the sidecar; call it once
// on the exit path. The returned address is the endpoint actually bound
// ("" when -metrics-addr is off) — report it so ":0" users can find the
// port.
func (f *Flags) Open() (opts *Options, addr string, stop func() error, err error) {
	if !f.Enabled() {
		return nil, "", func() error { return nil }, nil
	}
	opts = &Options{Config: Config{Every: f.SampleEvery}}
	var ln net.Listener
	if f.MetricsAddr != "" {
		opts.Server = NewServer()
		_, ln, err = obs.Listen(f.MetricsAddr, opts.Server.Handler())
		if err != nil {
			return nil, "", nil, fmt.Errorf("telemetry: listening on %s: %w", f.MetricsAddr, err)
		}
		addr = ln.Addr().String()
	}
	if f.SidecarPath != "" {
		opts.Sidecar, err = OpenSidecar(f.SidecarPath)
		if err != nil {
			if ln != nil {
				ln.Close()
			}
			return nil, "", nil, err
		}
	}
	stop = func() error {
		var firstErr error
		if ln != nil {
			firstErr = ln.Close()
		}
		if opts.Sidecar != nil {
			if err := opts.Sidecar.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return fmt.Errorf("telemetry: shutting down: %w", firstErr)
		}
		return nil
	}
	return opts, addr, stop, nil
}
