package resilience

import (
	"errors"
	"strings"
	"testing"
)

func TestRunPassesThroughResults(t *testing.T) {
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("Run(nil-returning fn) = %v", err)
	}
	sentinel := errors.New("boom")
	if err := Run(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Run did not pass the error through: %v", err)
	}
}

func TestRunCapturesPanicValueAndStack(t *testing.T) {
	err := Run(func() error { panic("lane table overflow") })
	if err == nil {
		t.Fatal("panic escaped Run as a nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %T, want *PanicError", err)
	}
	if pe.Value != "lane table overflow" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestRunCapturesPanicValueAndStack") {
		t.Fatalf("stack does not reach the panic site:\n%s", pe.Stack)
	}
	if msg := pe.Error(); !strings.Contains(msg, "panic: lane table overflow") {
		t.Fatalf("unexpected rendering: %s", msg)
	}
}
