package sim

import "testing"

func TestEngineStageOrder(t *testing.T) {
	e := NewEngine()
	var trace []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.RegisterFunc(name, func(int64) { trace = append(trace, name) })
	}
	e.Step()
	if got := len(trace); got != 3 {
		t.Fatalf("ran %d stages, want 3", got)
	}
	for i, want := range []string{"a", "b", "c"} {
		if trace[i] != want {
			t.Fatalf("stage %d ran %q, want %q", i, trace[i], want)
		}
	}
}

func TestEngineCyclePassedToStages(t *testing.T) {
	e := NewEngine()
	var got []int64
	e.RegisterFunc("rec", func(c int64) { got = append(got, c) })
	e.Run(5)
	for i, c := range got {
		if c != int64(i) {
			t.Fatalf("stage saw cycle %d at step %d", c, i)
		}
	}
	if e.Cycle() != 5 {
		t.Fatalf("Cycle() = %d after Run(5)", e.Cycle())
	}
}

func TestEngineRunResumes(t *testing.T) {
	e := NewEngine()
	count := 0
	e.RegisterFunc("n", func(int64) { count++ })
	e.Run(10)
	e.Run(25)
	if count != 25 {
		t.Fatalf("stages ran %d times across two Runs, want 25", count)
	}
}

func TestEngineStopCondition(t *testing.T) {
	e := NewEngine()
	e.RegisterFunc("noop", func(int64) {})
	e.AddStop(func(c int64) bool { return c >= 7 })
	stopped := e.Run(100)
	if stopped != 7 {
		t.Fatalf("stopped at %d, want 7", stopped)
	}
}

func TestEngineMultipleStops(t *testing.T) {
	e := NewEngine()
	e.RegisterFunc("noop", func(int64) {})
	e.AddStop(func(c int64) bool { return false })
	e.AddStop(func(c int64) bool { return c >= 3 })
	if stopped := e.Run(100); stopped != 3 {
		t.Fatalf("stopped at %d, want 3", stopped)
	}
}

func TestEngineRunPastHorizonPanics(t *testing.T) {
	e := NewEngine()
	e.RegisterFunc("noop", func(int64) {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Run with horizon before current cycle did not panic")
		}
	}()
	e.Run(5)
}

func TestEngineRegisterNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	e.Register(nil)
}

func TestEngineStagesCount(t *testing.T) {
	e := NewEngine()
	if len(e.stages) != 0 {
		t.Fatalf("fresh engine has %d stages", len(e.stages))
	}
	e.RegisterFunc("x", func(int64) {})
	e.RegisterFunc("y", func(int64) {})
	if len(e.stages) != 2 {
		t.Fatalf("Stages() = %d, want 2", len(e.stages))
	}
}

func TestStageFuncName(t *testing.T) {
	s := StageFunc{Label: "link", Fn: func(int64) {}}
	if s.Name() != "link" {
		t.Fatalf("Name() = %q", s.Name())
	}
}

func TestEngineZeroHorizonNoop(t *testing.T) {
	e := NewEngine()
	ran := false
	e.RegisterFunc("x", func(int64) { ran = true })
	if end := e.Run(0); end != 0 || ran {
		t.Fatalf("Run(0) executed stages (end=%d ran=%v)", end, ran)
	}
}

// countingStage wraps another stage, recording invocations, for
// TestEngineInstrument.
type countingStage struct {
	inner Stage
	calls *int
}

func (c countingStage) Name() string { return c.inner.Name() }
func (c countingStage) Tick(cycle int64) {
	*c.calls++
	c.inner.Tick(cycle)
}

func TestEngineInstrument(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		e.RegisterFunc(name, func(int64) { order = append(order, name) })
	}
	calls := 0
	e.Instrument(func(s Stage) Stage {
		if s.Name() == "b" {
			return nil // nil keeps the original stage
		}
		return countingStage{inner: s, calls: &calls}
	})
	e.Run(3)
	if calls != 3 {
		t.Fatalf("wrapped stage ticked %d times, want 3", calls)
	}
	if len(order) != 6 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("instrumentation disturbed stage order: %v", order)
	}
}
