package main

import (
	"fmt"

	"smart/internal/core"
)

// degradedScenarios are the overlays the degraded-operation study
// applies on top of an otherwise clean configuration. The fault clause
// is seeded-random, so it expands deterministically from each run's
// Config.Fingerprint: the same configuration always loses the same six
// links, and the study stays content-addressable.
var degradedScenarios = []struct {
	label  string
	faults string
	burst  string
}{
	{"clean", "", ""},
	{"faulted", "rand-links:6@1000", ""},
	{"bursty", "", "mmpp:200:600:2.5"},
	{"faulted+bursty", "rand-links:6@1000", "mmpp:200:600:2.5"},
}

// degradedStudy sweeps the fault-tolerant configurations — the Duato
// torus and the adaptive fat-tree — under each degraded scenario and
// reports the saturation shift. These are the numbers behind README's
// degraded-saturation table. Deterministic (dimension-order) cube
// routing is excluded on purpose: it is fault-oblivious by design and
// wedges at the first cut link on its path; the watchdog names the
// blocked header instead (see the seeded-fault regression test).
func degradedStudy(seed uint64, warmup, horizon int64) study {
	configs := []core.Config{
		{Network: core.NetworkCube, K: 8, N: 2, Algorithm: core.AlgDuato, VCs: 4},
		{Network: core.NetworkTree, K: 4, N: 4, Algorithm: core.AlgAdaptive, VCs: 4},
	}
	var cases []studyCase
	for _, cfg := range configs {
		for _, sc := range degradedScenarios {
			cfg.Pattern = "uniform"
			cfg.Seed = seed
			cfg.Warmup, cfg.Horizon = warmup, horizon
			cfg.Faults, cfg.Burst = sc.faults, sc.burst
			cases = append(cases, studyCase{label: sc.label, batch: "degraded/" + cfg.Label() + "/" + sc.label, cfg: cfg})
		}
	}
	return study{
		title: "Degraded operation: saturation under faults and bursty injection",
		cases: cases,
		tables: []table{{
			headers: []string{"configuration", "scenario", "saturation", "bits/ns at saturation", "pre-sat latency ns"},
			row: func(c studyCase, swept []core.Result) []string {
				sat, row := saturation(swept)
				return []string{
					c.cfg.Label(), c.label, sat,
					fmt.Sprintf("%.0f", row.SaturationBitsNS),
					fmt.Sprintf("%.0f", row.PreSatLatencyNS),
				}
			},
			csv: "degraded-saturation.csv",
		}},
	}
}
