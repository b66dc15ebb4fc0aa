package main

import "smart/internal/core"

// ablationStudies declares the extension studies DESIGN.md commits to:
// the design-choice sensitivities the paper discusses qualitatively but
// does not plot. Each case sets only the fields it varies; the grid's
// seed and horizons are stamped on afterwards, and each case's runs are
// stamped with the batch "<title>/<label>".
func ablationStudies(seed uint64, warmup, horizon int64) []study {
	const (
		cube, mesh, tree = core.NetworkCube, core.NetworkMesh, core.NetworkTree
		duato, det, adpt = core.AlgDuato, core.AlgDeterministic, core.AlgAdaptive
	)
	studies := []study{
		{
			title: "Ablation: lane buffer depth (tree, 2 VCs, uniform)",
			prose: []string{
				"The paper fixes input and output lanes at 4 flits; deeper lanes absorb",
				"more blocking in the descending phase.",
			},
			cases: []studyCase{
				{label: "2-flit lanes", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, BufDepth: 2}},
				{label: "4-flit lanes", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, BufDepth: 4}},
				{label: "8-flit lanes", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, BufDepth: 8}},
			},
			tables: []table{{metric: accepted, csv: "ablation-bufdepth.csv"}},
		},
		{
			title: "Ablation: packet size (cube duato, uniform)",
			prose: []string{
				"Longer worms raise the tail latency and deepen blocking trees; the",
				"paper's 64-byte packets sit between the extremes.",
			},
			cases: []studyCase{
				{label: "16B packets", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, PacketBytes: 16}},
				{label: "64B packets", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, PacketBytes: 64}},
				{label: "256B packets", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, PacketBytes: 256}},
			},
			tables: []table{
				{caption: "accepted bandwidth (fraction of capacity)", metric: accepted, csv: "ablation-packetsize-accepted.csv"},
				{caption: "network latency (cycles)", metric: latency, csv: "ablation-packetsize-latency.csv"},
			},
		},
		{
			title: "Ablation: source throttling (cube duato, uniform)",
			prose: []string{
				"The paper's single injection channel keeps throughput stable above",
				"saturation (§3); multiple injection lanes let a node push several",
				"worms concurrently.",
			},
			cases: []studyCase{
				{label: "1 inj lanes", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, InjLanes: 1}},
				{label: "2 inj lanes", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, InjLanes: 2}},
				{label: "4 inj lanes", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, InjLanes: 4}},
			},
			tables: []table{{metric: accepted, csv: "ablation-injlanes.csv"}},
		},
		{
			title: "Ablation: fat-tree ascent policy (tree, 2 VCs, uniform)",
			prose: []string{
				"The paper's algorithm picks the least-loaded up link; round-robin",
				"ignores load, digit-aligned is fully oblivious (optimal for the",
				"congestion-free permutations, blind under random traffic).",
			},
			cases: []studyCase{
				{label: "least-loaded", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, TreeAscent: "least-loaded"}},
				{label: "round-robin", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, TreeAscent: "round-robin"}},
				{label: "digit-aligned", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2, TreeAscent: "digit-aligned"}},
			},
			tables: []table{{metric: accepted, csv: "ablation-ascent.csv"}},
		},
		{
			title: "Ablation: switching mode (cube duato, uniform)",
			prose: []string{
				"Wormhole (4-flit lanes) vs virtual cut-through (16-flit lanes) vs",
				"store-and-forward (16-flit lanes, whole-packet gate): SAF pays the",
				"distance-times-length latency product wormhole switching avoids.",
			},
			cases: []studyCase{
				{label: "wormhole", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4}},
				{label: "cut-through", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, BufDepth: 16}},
				{label: "store-and-forward", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, BufDepth: 16, StoreAndForward: true}},
			},
			tables: []table{
				{caption: "accepted bandwidth (fraction of capacity)", metric: accepted},
				{caption: "network latency (cycles)", metric: latency, csv: "ablation-switching.csv"},
			},
		},
		{
			title: "Ablation: routing-delay stretch (cube duato, uniform)",
			prose: []string{
				"De-equalizing the pipeline: one header routed per switch every R",
				"cycles emulates a slower routing decision than the cost model's",
				"single cycle.",
			},
			cases: []studyCase{
				{label: "route every 1", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, RouteEvery: 1}},
				{label: "route every 2", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, RouteEvery: 2}},
				{label: "route every 4", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, RouteEvery: 4}},
			},
			tables: []table{{metric: accepted, csv: "ablation-routeevery.csv"}},
		},
		{
			title: "Ablation: torus vs mesh (duato, uniform)",
			prose: []string{
				"Removing the wrap-around links halves the bisection; offered load is",
				"normalized to each network's own capacity bound, so equal fractions",
				"hide a 2x difference in absolute traffic.",
			},
			cases: []studyCase{
				{label: "cube duato", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4}},
				{label: "mesh duato", cfg: core.Config{Network: mesh, Algorithm: duato, VCs: 4}},
			},
			tables: []table{
				{caption: "accepted bandwidth (fraction of each network's own capacity)", metric: accepted},
				{caption: "accepted traffic (bits/ns, absolute)", metric: bitsNS, csv: "ablation-mesh.csv"},
			},
		},
		{
			title: "Extension: diminishing returns beyond 4 virtual channels (tree, uniform)",
			prose: []string{
				"The paper predicts (§11) that past four virtual channels the routing",
				"delay overtakes the wire delay, so extra lanes buy cycles-domain",
				"throughput but lose absolute bits/ns. Eight lanes put the clock at",
				"T_routing = 11.66 ns against the 4-lane 10.84 ns.",
			},
			cases: []studyCase{
				{label: "2 vc", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 2}},
				{label: "4 vc", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 4}},
				{label: "8 vc", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 8}},
			},
			tables: []table{
				{caption: "accepted bandwidth (fraction of capacity)", metric: accepted},
				{caption: "accepted traffic (bits/ns, absolute)", metric: bitsNS, csv: "extension-8vc.csv"},
			},
		},
		{
			title: "Extension: hypercubes again? (2-ary 8-cube vs 16-ary 2-cube)",
			prose: []string{
				"The paper cites Duato & Malumbres' question of whether hypercubes beat",
				"low-dimensional tori once router complexity is charged. The binary",
				"8-cube pays a 65-port crossbar and F = 18 routing freedom under the",
				"same cost model; both networks have 256 nodes.",
			},
			cases: []studyCase{
				{label: "torus duato", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4}},
				{label: "hypercube duato", cfg: core.Config{Network: cube, K: 2, N: 8, Algorithm: duato, VCs: 4}},
				{label: "hypercube det", cfg: core.Config{Network: cube, K: 2, N: 8, Algorithm: det, VCs: 4}},
			},
			tables: []table{
				{caption: "accepted bandwidth (fraction of each network's own capacity)", metric: accepted},
				{caption: "accepted traffic (bits/ns, absolute after cost-model filtering)", metric: bitsNS, csv: "extension-hypercube.csv"},
			},
		},
		{
			title: "Extension: additional traffic patterns",
			prose: []string{
				"Tornado on the cube (adversarial ring pressure), perfect shuffle and",
				"a 5% hotspot on both networks.",
			},
			cases: []studyCase{
				{label: "cube duato / tornado", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, Pattern: core.PatternTornado}},
				{label: "cube det / tornado", cfg: core.Config{Network: cube, Algorithm: det, VCs: 4, Pattern: core.PatternTornado}},
				{label: "cube duato / shuffle", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, Pattern: core.PatternShuffle}},
				{label: "tree 4vc / shuffle", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 4, Pattern: core.PatternShuffle}},
				{label: "cube duato / hotspot", cfg: core.Config{Network: cube, Algorithm: duato, VCs: 4, Pattern: core.PatternHotspot}},
				{label: "tree 4vc / hotspot", cfg: core.Config{Network: tree, Algorithm: adpt, VCs: 4, Pattern: core.PatternHotspot}},
			},
			tables: []table{{metric: accepted, csv: "extension-patterns.csv"}},
		},
	}
	for _, s := range studies {
		for i := range s.cases {
			c := &s.cases[i]
			c.batch = s.title + "/" + c.label
			c.cfg.Seed = seed
			c.cfg.Warmup, c.cfg.Horizon = warmup, horizon
		}
	}
	return studies
}
