package resilience

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM, so commands can flush their stores and partial manifests
// before exiting. After the first signal the default disposition is
// restored: a second signal kills the process immediately, keeping an
// impatient Ctrl-C Ctrl-C working. The returned stop function releases
// the signal registration; call it when the run completes normally.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	//smartlint:allow concurrency — releases the signal registration as soon as the context ends
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
