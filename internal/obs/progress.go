package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a live reporter for multi-run workloads (load sweeps,
// batches, the full experiment grid). Worker goroutines record each
// completed run with RunDone; a background ticker started with Start
// emits one status line per interval — runs completed/total, the most
// recent load point, aggregate simulated cycles per second, elapsed time
// and ETA. All methods are safe for concurrent use, and a nil *Progress
// is a valid no-op receiver so callers can thread an optional reporter
// without nil checks at every site.
type Progress struct {
	total    int64
	interval time.Duration
	start    time.Time

	completed atomic.Int64
	cycles    atomic.Int64
	lastLoad  atomic.Uint64 // Float64bits of the most recently completed load

	//smartlint:allow concurrency — progress reporting is wall-time instrumentation, outside the deterministic core
	mu   sync.Mutex // guards w and stop lifecycle
	w    io.Writer
	stop chan struct{}
	//smartlint:allow concurrency — joins the ticker goroutine on Stop
	wg sync.WaitGroup
}

// NewProgress prepares a reporter over total expected runs, writing
// status lines to w every interval (a non-positive interval defaults to
// two seconds). The clock starts immediately.
func NewProgress(w io.Writer, total int, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Progress{w: w, total: int64(total), interval: interval, start: time.Now()}
}

// RunDone records one completed run: the offered load it measured and
// the number of cycles its engine simulated.
func (p *Progress) RunDone(load float64, cycles int64) {
	if p == nil {
		return
	}
	p.lastLoad.Store(math.Float64bits(load))
	p.cycles.Add(cycles)
	p.completed.Add(1)
}

// Snapshot is a point-in-time view of the workload.
type Snapshot struct {
	Completed, Total int64
	// Cycles is the aggregate simulated cycle count across completed
	// runs; CyclesPerSec divides it by the elapsed wall time.
	Cycles       int64
	CyclesPerSec float64
	// LastLoad is the offered load of the most recently completed run.
	LastLoad float64
	Elapsed  time.Duration
	// ETA estimates the remaining wall time from the mean run cost so
	// far; zero until the first run completes and once all are done.
	ETA time.Duration
}

// Snapshot returns the current state. Counts are monotone across calls.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	done := p.completed.Load()
	s := Snapshot{
		Completed: done,
		Total:     p.total,
		Cycles:    p.cycles.Load(),
		LastLoad:  math.Float64frombits(p.lastLoad.Load()),
		Elapsed:   time.Since(p.start),
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.CyclesPerSec = float64(s.Cycles) / sec
	}
	if done > 0 && done < p.total {
		s.ETA = time.Duration(float64(s.Elapsed) / float64(done) * float64(p.total-done))
	}
	return s
}

// Emit writes one status line.
func (p *Progress) Emit() {
	if p == nil {
		return
	}
	s := p.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return
	}
	eta := "done"
	if s.Completed < s.Total {
		eta = "eta " + s.ETA.Round(time.Second).String()
		if s.Completed == 0 {
			eta = "eta ?"
		}
	}
	fmt.Fprintf(p.w, "progress: %d/%d runs, load %.2f, %s cycles/s, elapsed %s, %s\n",
		s.Completed, s.Total, s.LastLoad, formatRate(s.CyclesPerSec),
		s.Elapsed.Round(time.Second), eta)
}

// Start launches the background ticker. It is idempotent; pair with
// Stop.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	p.stop = stop
	p.wg.Add(1)
	p.mu.Unlock()
	//smartlint:allow concurrency — periodic progress printer; reads only atomics, never simulation state
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.Emit()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the ticker and emits a final line. A reporter that is not
// running — never started, or already stopped — stays silent, so Stop
// is safe to call more than once.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	p.wg.Wait()
	p.Emit()
}
