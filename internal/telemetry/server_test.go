package telemetry_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden /metrics fixture")

const (
	metricsGoldenPath       = "testdata/golden_metrics.txt"
	metricsFaultsGoldenPath = "testdata/golden_metrics_faults.txt"
)

// scrape GETs one path from the server's handler.
func scrape(t *testing.T, srv *telemetry.Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	body, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w.Result().StatusCode, string(body)
}

// TestMetricsGoldenResponse pins the full /metrics body for a
// deterministic fixed-seed run: the exposition format, metric names,
// label sets and every value. Counter changes in the fabric or format
// changes in the server both surface here as a readable diff.
// Regenerate with:
//
//	go test ./internal/telemetry -run TestMetricsGoldenResponse -update-golden
func TestMetricsGoldenResponse(t *testing.T) {
	s := newSim(t, 0.4)
	run := telemetry.RunInfo{Batch: "golden", Index: 2, Label: "tree adaptive-2vc",
		Pattern: "uniform", Seed: 7, Load: 0.4, Fingerprint: s.Config.Fingerprint()}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, 100)
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	status, body := scrape(t, srv, "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	// Two scrapes of unchanged state must be byte-identical — the
	// deterministic-ordering contract (attach-order iteration, no maps,
	// no wall time).
	if _, again := scrape(t, srv, "/metrics"); again != body {
		t.Fatal("two scrapes of the same state differ")
	}

	checkGolden(t, metricsGoldenPath, body)
}

// TestMetricsGoldenFaultedGrid pins the /metrics families the fault-free
// golden never renders: the degraded-mode counters and gauges of a
// faulted run, and the grid-level families of an attached Progress (left
// unstarted with no completed runs, so its wall-clock rate reads 0).
// Regenerate like TestMetricsGoldenResponse.
func TestMetricsGoldenFaultedGrid(t *testing.T) {
	s, err := core.NewSimulation(core.Config{
		Network: core.NetworkCube, K: 4, N: 2, Algorithm: core.AlgDuato, VCs: 4,
		Pattern: core.PatternUniform, Load: 0.3, Seed: 13,
		Warmup: 200, Horizon: 1500,
		Faults: "rand-links:2@300,router:9@500",
	})
	if err != nil {
		t.Fatal(err)
	}
	run := telemetry.RunInfo{Batch: "golden-faults", Index: 1, Label: s.Config.Label(),
		Pattern: "uniform", Seed: 13, Load: 0.3, Fingerprint: s.Config.Fingerprint()}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, 100)
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.SetProgress(obs.NewProgress(io.Discard, 4, 0))
	srv.Attach(sp)
	// A finished failed run folds into the cumulative counters.
	srv.Detach(telemetry.NewSampler(s.Fabric, nil, telemetry.RunInfo{}, 0), true)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_, body := scrape(t, srv, "/metrics")
	for _, want := range []string{"smart_run_fault_stalls_total{", "smart_run_rerouted_total{",
		"smart_run_down_links{", "smart_run_down_routers{", "smart_grid_total 4\n"} {
		if !strings.Contains(body, want) {
			t.Fatalf("faulted grid body lacks %q:\n%s", want, body)
		}
	}
	checkGolden(t, metricsFaultsGoldenPath, body)
}

// checkGolden compares body with the fixture at path, rewriting it under
// -update-golden.
func checkGolden(t *testing.T, path, body string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(body))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update-golden to create): %v", err)
	}
	if body != string(want) {
		t.Fatalf("/metrics drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, body, want)
	}
}

// TestMetricsEscapesLabelValuesOnce pins label escaping to the text
// format's rules: a batch name from a user batch file renders its quote,
// backslash and newline escaped exactly once, and a tab, which the
// format does not escape, stays raw.
func TestMetricsEscapesLabelValuesOnce(t *testing.T) {
	s := newSim(t, 0.4)
	run := telemetry.RunInfo{Batch: "a\"b\\c\nd", Label: "tab\there"}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, 100)
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_, body := scrape(t, srv, "/metrics")
	want := `smart_run_cycle{batch="a\"b\\c\nd",index="0",label="tab` + "\t" + `here",pattern="",load="0"} 1500` + "\n"
	if !strings.Contains(body, want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, body)
	}
}

func TestMetricsServesGridAndLifecycle(t *testing.T) {
	s := newSim(t, 0.4)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{Label: "x"}, 100)
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_, body := scrape(t, srv, "/metrics")
	if !strings.Contains(body, "smart_runs_active 1") {
		t.Fatalf("active run not reported:\n%s", body)
	}
	if !strings.Contains(body, "smart_run_flits_delivered_total") {
		t.Fatalf("run counters missing:\n%s", body)
	}
	srv.Detach(sp, false)
	_, body = scrape(t, srv, "/metrics")
	if !strings.Contains(body, "smart_runs_active 0") || !strings.Contains(body, "smart_runs_completed_total 1") {
		t.Fatalf("detach not reflected:\n%s", body)
	}
	if strings.Contains(body, "smart_run_flits_delivered_total") {
		t.Fatalf("detached run still served:\n%s", body)
	}
}

func TestTelemetryJSONEndpoint(t *testing.T) {
	s := newSim(t, 0.4)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{Label: "x", Load: 0.4}, 100)
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	status, body := scrape(t, srv, "/telemetry.json")
	if status != 200 {
		t.Fatalf("/telemetry.json status %d", status)
	}
	var got struct {
		RunsActive int `json:"runs_active"`
		Runs       []struct {
			Label  string            `json:"label"`
			Every  int64             `json:"every"`
			Points []telemetry.Point `json:"points"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if got.RunsActive != 1 || len(got.Runs) != 1 {
		t.Fatalf("runs_active %d, runs %d", got.RunsActive, len(got.Runs))
	}
	if got.Runs[0].Label != "x" || got.Runs[0].Every != 100 || len(got.Runs[0].Points) == 0 {
		t.Fatalf("run payload: %+v", got.Runs[0])
	}
}
