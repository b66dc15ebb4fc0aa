package core

import "testing"

// TestSweepLoadEndpoints runs the degenerate ends of a load sweep. At
// offered load 0.0 the Bernoulli process never fires: the run must
// complete with zero packets and zero measured bandwidth rather than
// dividing by the empty window. At 1.0 every node offers the full
// capacity — deep saturation — and the run must still terminate at the
// horizon with accepted bandwidth in (0, 1].
func TestSweepLoadEndpoints(t *testing.T) {
	base := Config{
		Network: NetworkTree, K: 2, N: 2,
		Algorithm: AlgAdaptive, VCs: 2,
		Pattern: PatternUniform, Seed: 11,
		Warmup: 200, Horizon: 1000,
	}
	res, err := SweepWith(base, []float64{0.0, 1.0}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(res))
	}

	idle := res[0].Sample
	if idle.Offered != 0 {
		t.Fatalf("endpoint 0 sample has offered %v", idle.Offered)
	}
	if idle.PacketsCreated != 0 || idle.PacketsDelivered != 0 {
		t.Fatalf("zero load created %d / delivered %d packets, want none", idle.PacketsCreated, idle.PacketsDelivered)
	}
	if idle.Accepted != 0 || idle.AvgLatency != 0 {
		t.Fatalf("zero load measured accepted %v latency %v, want zeros", idle.Accepted, idle.AvgLatency)
	}

	full := res[1].Sample
	if full.Offered != 1.0 {
		t.Fatalf("endpoint 1 sample has offered %v", full.Offered)
	}
	if full.PacketsDelivered == 0 {
		t.Fatal("full load delivered no packets")
	}
	if full.Accepted <= 0 || full.Accepted > 1.0001 {
		t.Fatalf("full-load accepted bandwidth %v outside (0, 1]", full.Accepted)
	}
	if full.AvgLatency <= 0 {
		t.Fatalf("full-load latency %v not positive", full.AvgLatency)
	}
}
