package core

import (
	"math"
	"testing"
)

func bisectBase() Config {
	return Config{
		Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 1,
		K: 4, N: 2, Pattern: PatternUniform,
		Seed: 3, Warmup: 500, Horizon: 4000,
	}
}

func TestFindSaturationLocatesKnee(t *testing.T) {
	sat, ok, err := FindSaturation(bisectBase(), 0.1, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("saturation not bracketed")
	}
	// The 16-node 1vc tree saturates somewhere in the middle of the
	// range; the point must agree with a direct probe on either side.
	cfg := bisectBase()
	cfg.Load = sat - 0.1
	below, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if below.Sample.Offered-below.Sample.Accepted > 0.03 {
		t.Fatalf("network already saturated below the reported knee %.2f", sat)
	}
	cfg.Load = math.Min(sat+0.15, 1.0)
	above, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if above.Sample.Offered-above.Sample.Accepted < 0.02 {
		t.Fatalf("network not saturated above the reported knee %.2f", sat)
	}
}

func TestFindSaturationUnsaturatedInterval(t *testing.T) {
	// Below the knee everywhere: [0.05, 0.2] is comfortably stable.
	sat, ok, err := FindSaturation(bisectBase(), 0.05, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ok || sat != 0.2 {
		t.Fatalf("unsaturated interval reported (%v,%v)", sat, ok)
	}
}

func TestFindSaturationAlreadySaturatedAtLow(t *testing.T) {
	sat, ok, err := FindSaturation(bisectBase(), 0.9, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ok || sat != 0.9 {
		t.Fatalf("saturated-at-lo case reported (%v,%v)", sat, ok)
	}
}

func TestFindSaturationValidation(t *testing.T) {
	if _, _, err := FindSaturation(bisectBase(), 0.5, 0.2, 0.05); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, _, err := FindSaturation(bisectBase(), 0.1, 0.5, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
	bad := bisectBase()
	bad.Pattern = "nonsense"
	if _, _, err := FindSaturation(bad, 0.1, 0.5, 0.1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMeshConfigRuns(t *testing.T) {
	cfg := Config{
		Network: NetworkMesh, Algorithm: AlgDuato, VCs: 4,
		K: 4, N: 2, Load: 0.2, Seed: 1, Warmup: 300, Horizon: 2000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.PacketsDelivered == 0 {
		t.Fatal("mesh delivered nothing")
	}
	if res.Config.Label() != "mesh duato" {
		t.Fatalf("mesh label %q", res.Config.Label())
	}
	// Same clock as the torus (same router microarchitecture).
	torus := Config{Network: NetworkCube, Algorithm: AlgDuato, VCs: 4}
	tm1, err := cfg.Timing()
	if err != nil {
		t.Fatal(err)
	}
	tm2, err := torus.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm1 != tm2 {
		t.Fatal("mesh and torus timings differ")
	}
}
