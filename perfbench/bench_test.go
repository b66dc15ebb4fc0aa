package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json these tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyParams returns a tiny-size run whose output goes to a test
// directory.
func tinyParams(t *testing.T, workload string, trace bool) params {
	t.Helper()
	outDir = t.TempDir()
	pins, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return params{workload: workload, seed: 2, seconds: 0.3, trace: trace, size: "tiny", pins: pins}
}

func decodeResult(t *testing.T, line string) result {
	t.Helper()
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return r
}

// TestTinyRunsEmitEveryMetric runs every workload of BENCHMARK.json at
// tiny size, untraced and traced, and checks that the result line holds
// exactly the metrics BENCHMARK.json names for that mode, each with its
// unit, and that every correctness gate passed.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			line, err := run(tinyParams(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			r := decodeResult(t, line)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit == "" || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, name, m, unit)
				}
			}
		}
	}
}

// TestWrongPinsFail checks that a pinned digest or Counters value that
// does not match the program's output is counted as a failure.
func TestWrongPinsFail(t *testing.T) {
	p := tinyParams(t, "paper-grid", false)
	p.pins.GridDigest[pinKey(p.size, simSeed(p.seed))] = "0000"
	r := decodeResult(t, mustRun(t, p))
	if r.Correct || r.Failed == 0 {
		t.Errorf("paper-grid with a wrong pinned digest: correct=%v failed=%d", r.Correct, r.Failed)
	}

	p = tinyParams(t, "large-fabric", false)
	pin := p.pins.LargeFabric[pinKey(p.size, simSeed(p.seed))]
	pin.Counters.PacketsDelivered++
	p.pins.LargeFabric[pinKey(p.size, simSeed(p.seed))] = pin
	r = decodeResult(t, mustRun(t, p))
	if r.Correct || r.Failed == 0 {
		t.Errorf("large-fabric with a wrong pinned counter: correct=%v failed=%d", r.Correct, r.Failed)
	}
}

func mustRun(t *testing.T, p params) string {
	t.Helper()
	line, err := run(p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestHeldOutSeedRunsItsOwnWorkload checks that the held-out seed maps
// onto a simulation seed no other workload seed maps onto, that it has
// pins at both sizes, and that its tiny runs match them.
func TestHeldOutSeedRunsItsOwnWorkload(t *testing.T) {
	for s := uint64(0); s < 16; s++ {
		if simSeed(s) == simSeed(heldOutSeed) {
			t.Errorf("seed %d shares simulation seed %d with the held-out seed", s, simSeed(s))
		}
	}
	pins, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []string{"full", "tiny"} {
		key := pinKey(size, simSeed(heldOutSeed))
		if _, ok := pins.GridDigest[key]; !ok {
			t.Errorf("no grid digest pinned for %s", key)
		}
		if _, ok := pins.LargeFabric[key]; !ok {
			t.Errorf("no large-fabric outcome pinned for %s", key)
		}
	}
	for _, w := range []string{"paper-grid", "large-fabric"} {
		p := tinyParams(t, w, false)
		p.seed = heldOutSeed
		if r := decodeResult(t, mustRun(t, p)); !r.Correct {
			t.Errorf("%s with the held-out seed: correct=%v failed=%d", w, r.Correct, r.Failed)
		}
	}
}
