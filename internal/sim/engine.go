package sim

import "fmt"

// Stage is one hardware structure's per-cycle update. Stages registered on
// an Engine run in registration order, once per cycle, and may inspect the
// current cycle through the Engine they were registered on. A wormhole
// network registers (in flow order seen by a flit over successive cycles,
// but executed so that each flit advances at most one stage per cycle):
// link transfer, crossbar transfer, routing, injection, credit commit.
type Stage interface {
	// Name identifies the stage in diagnostics.
	Name() string
	// Tick performs the stage's work for the given cycle.
	Tick(cycle int64)
}

// StageFunc adapts a plain function to the Stage interface.
type StageFunc struct {
	Label string
	Fn    func(cycle int64)
}

// Name returns the stage label.
func (s StageFunc) Name() string { return s.Label }

// Tick invokes the wrapped function.
func (s StageFunc) Tick(cycle int64) { s.Fn(cycle) }

// StopCondition lets a simulation halt before its horizon, e.g. when the
// network has drained after injection stops.
type StopCondition func(cycle int64) bool

// Engine is the cycle-driven kernel: it owns the clock and the ordered
// stage list. The zero value is not usable; construct with NewEngine.
type Engine struct {
	cycle  int64
	stages []Stage
	stops  []StopCondition
	wd     *watchdog
	stall  *StallError
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Register appends a stage to the per-cycle schedule. Order matters: the
// network model relies on links being served before crossbars, and
// crossbars before routing, so that a flit advances at most one pipeline
// stage per cycle without per-flit timestamps on every move.
func (e *Engine) Register(s Stage) {
	if s == nil {
		panic("sim: Register called with nil stage")
	}
	e.stages = append(e.stages, s)
}

// RegisterFunc is a convenience wrapper around Register.
func (e *Engine) RegisterFunc(label string, fn func(cycle int64)) {
	e.Register(StageFunc{Label: label, Fn: fn})
}

// AddStop installs a stop condition checked after every cycle.
func (e *Engine) AddStop(c StopCondition) {
	e.stops = append(e.stops, c)
}

// Instrument replaces every registered stage s with wrap(s), preserving
// registration order. A nil result keeps the original stage. The
// observability layer uses this to time stages without the engine paying
// any cost when nothing is attached: an uninstrumented engine ticks the
// bare stages exactly as before.
func (e *Engine) Instrument(wrap func(Stage) Stage) {
	for i, s := range e.stages {
		if w := wrap(s); w != nil {
			e.stages[i] = w
		}
	}
}

// Cycle returns the index of the cycle currently executing, or, between
// Run calls, the index of the next cycle to execute.
func (e *Engine) Cycle() int64 { return e.cycle }

// Step executes exactly one cycle.
func (e *Engine) Step() {
	for _, s := range e.stages {
		s.Tick(e.cycle)
	}
	e.cycle++
}

// Run executes cycles until the horizon (exclusive) or until a stop
// condition fires, and returns the cycle at which it stopped. Calling Run
// again resumes from where the previous call left off, which the drain
// phase of a simulation uses to extend the horizon after shutting off
// injection.
// A watched engine (see Watch) also stops when the no-progress budget
// is exhausted; check Stall after Run to distinguish a deadlock abort
// from a normal stop.
func (e *Engine) Run(horizon int64) int64 {
	if horizon < e.cycle {
		panic(fmt.Sprintf("sim: Run horizon %d precedes current cycle %d", horizon, e.cycle))
	}
	if e.stall != nil {
		return e.cycle
	}
	for e.cycle < horizon {
		e.Step()
		for _, stop := range e.stops {
			if stop(e.cycle) {
				return e.cycle
			}
		}
		if e.wd != nil {
			if e.stall = e.wd.check(e.cycle); e.stall != nil {
				return e.cycle
			}
		}
	}
	return e.cycle
}
