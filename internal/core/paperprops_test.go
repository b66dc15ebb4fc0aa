package core

import (
	"testing"
)

// Paper-property tests: qualitative claims from the paper's text that
// must hold even on the scaled-down networks the unit suite can afford.
// The full-size confirmations live in cmd/experiments and EXPERIMENTS.md.

// TestTreeThroughputStableAboveSaturation checks §8: "In all cases the
// post saturation behavior is stable, with a constant throughput for any
// offered bandwidth."
func TestTreeThroughputStableAboveSaturation(t *testing.T) {
	cfg := Config{
		Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 1,
		K: 4, N: 2, Pattern: PatternUniform,
		Seed: 11, Warmup: 500, Horizon: 5000,
	}
	results, err := SweepWith(cfg, []float64{0.3, 0.5, 0.7, 0.85, 1.0}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	series := SeriesOf(results)
	stability, ok := series.PostSaturationStability(0.03)
	if !ok {
		t.Skip("network did not saturate at this scale")
	}
	if stability < 0.9 {
		t.Fatalf("post-saturation stability %.2f, want near-flat throughput", stability)
	}
}

// TestMoreVirtualChannelsNeverHurtThroughput checks the §8 trend: under
// uniform traffic the accepted bandwidth at a saturating load grows with
// the virtual channel count.
func TestMoreVirtualChannelsNeverHurtThroughput(t *testing.T) {
	accepted := make([]float64, 0, 3)
	for _, vcs := range []int{1, 2, 4} {
		cfg := Config{
			Network: NetworkTree, Algorithm: AlgAdaptive, VCs: vcs,
			K: 4, N: 2, Pattern: PatternUniform, Load: 0.95,
			Seed: 11, Warmup: 500, Horizon: 5000,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, res.Sample.Accepted)
	}
	if !(accepted[0] < accepted[1] && accepted[1] <= accepted[2]+0.02) {
		t.Fatalf("accepted bandwidth %v not improving with virtual channels", accepted)
	}
}

// TestAdaptiveBeatsDeterministicOnTranspose checks §9: on the transpose
// "the adaptive algorithm provides better performance ... more than twice
// than the deterministic one."
func TestAdaptiveBeatsDeterministicOnTranspose(t *testing.T) {
	measure := func(alg string) float64 {
		cfg := Config{
			Network: NetworkCube, Algorithm: alg, VCs: 4,
			K: 4, N: 2, Pattern: PatternTranspose, Load: 0.9,
			Seed: 11, Warmup: 500, Horizon: 5000,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sample.Accepted
	}
	det, duato := measure(AlgDeterministic), measure(AlgDuato)
	if duato <= det {
		t.Fatalf("duato %.3f not above deterministic %.3f on transpose", duato, det)
	}
}

// TestDeterministicBeatsAdaptiveOnComplement checks §9's surprise: "The
// complement is unusual since dimension order routing helps prevent
// conflicts", with the adaptive algorithm saturating earlier.
func TestDeterministicBeatsAdaptiveOnComplement(t *testing.T) {
	measure := func(alg string) float64 {
		cfg := Config{
			Network: NetworkCube, Algorithm: alg, VCs: 4,
			K: 8, N: 2, Pattern: PatternComplement, Load: 0.6,
			Seed: 11, Warmup: 500, Horizon: 6000,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sample.Accepted
	}
	det, duato := measure(AlgDeterministic), measure(AlgDuato)
	if det < duato {
		t.Fatalf("deterministic %.3f below duato %.3f on complement", det, duato)
	}
}

// TestTreeInsensitiveToPermutationChoice checks §11: "An important
// characteristic of the fat-tree is that its communication performance is
// not sensitive to the permutation pattern" (transpose and bit-reversal
// behave alike).
func TestTreeInsensitiveToPermutationChoice(t *testing.T) {
	measure := func(pattern string) float64 {
		cfg := Config{
			Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2,
			K: 4, N: 2, Pattern: pattern, Load: 0.8,
			Seed: 11, Warmup: 500, Horizon: 5000,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sample.Accepted
	}
	tp, br := measure(PatternTranspose), measure(PatternBitRev)
	if diffAbs(tp, br) > 0.08 {
		t.Fatalf("transpose %.3f and bit-reversal %.3f diverge on the tree", tp, br)
	}
}

func diffAbs(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestGoldenDeterminism pins the exact outcome of one fixed configuration
// as a regression guard: the simulator is a pure function of its
// configuration, so any change to these numbers means the model changed
// and EXPERIMENTS.md must be regenerated. (Update the constants when that
// is intentional.)
func TestGoldenDeterminism(t *testing.T) {
	cfg := Config{
		Network: NetworkCube, Algorithm: AlgDuato, VCs: 4,
		K: 4, N: 2, Pattern: PatternUniform, Load: 0.5,
		Seed: 2024, Warmup: 500, Horizon: 3000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sample != res.Sample {
		t.Fatal("identical configurations produced different samples")
	}
	if res.Sample.PacketsDelivered == 0 || res.Sample.PacketsCreated == 0 {
		t.Fatalf("degenerate golden run: %+v", res.Sample)
	}
	// Pin the integer counters (exact) and the derived ratios (tight).
	const wantDelivered, wantCreated = 1261, 1249
	if res.Sample.PacketsDelivered != wantDelivered || res.Sample.PacketsCreated != wantCreated {
		t.Fatalf("golden counters changed: delivered %d (want %d), created %d (want %d) — the model changed; regenerate EXPERIMENTS.md and update",
			res.Sample.PacketsDelivered, wantDelivered, res.Sample.PacketsCreated, wantCreated)
	}
}
