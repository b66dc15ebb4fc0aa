// Package obs is the observability spine of the reproduction: structured
// run logging on log/slog, a per-stage engine profiler, a live progress
// reporter for sweeps and batches, JSONL run manifests, the shared
// -cpuprofile/-memprofile/-trace flag wiring of the commands, and the
// one Prometheus text writer and HTTP listener behind every /metrics.
//
// It complements the two existing views of a simulation — the microscope
// of internal/trace (per-packet timelines) and the macroscope of
// internal/metrics and internal/chanstats (windowed aggregates) — with
// the harness view: what is the experiment runner doing right now, how
// fast is each engine stage, and where did the wall time go. Everything
// here is opt-in and nil-safe; a simulation with no observer attached
// runs the bare, uninstrumented hot path.
package obs

import (
	"io"
	"log/slog"
	"time"
)

// Stopwatch starts measuring wall time and returns a function that
// reports the elapsed duration. It exists so that code outside this
// package never reads the wall clock directly: the determinism
// contract (cmd/smartlint's wallclock rule) confines time.Now and
// time.Since to internal/obs, and wall-time instrumentation — run
// timing, progress ETAs, harness reporting — flows through here.
func Stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Log formats accepted by NewLogger and the -log-format flag.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// NewLogger builds a structured logger writing to w in the given format
// (FormatText or FormatJSON; anything else falls back to text). Commands
// construct one from their -v/-log-format flags; libraries receive it
// through core.Options and treat nil as "no logging".
func NewLogger(w io.Writer, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	var h slog.Handler
	if format == FormatJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// RunLogger scopes base to one simulation run, attaching the identifying
// attributes once so every subsequent record carries them. A nil base
// stays nil, preserving the no-logging fast path.
func RunLogger(base *slog.Logger, fingerprint, label, pattern string, seed uint64, load float64) *slog.Logger {
	if base == nil {
		return nil
	}
	return base.With(
		"cfg", fingerprint,
		"label", label,
		"pattern", pattern,
		"seed", seed,
		"load", load,
	)
}
