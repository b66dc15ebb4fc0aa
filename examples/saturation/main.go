// Saturation search: locate a network's saturation point by bisection.
//
//	go run ./examples/saturation
//
// The paper defines saturation as the minimum offered bandwidth at which
// the accepted bandwidth falls below the packet creation rate (§6). A
// full sweep (cmd/sweep) maps the whole curve; when only the saturation
// point is wanted, bisection over the offered load finds it in a handful
// of simulations. This example spells the bisection out and compares
// the two cube routing algorithms under uniform traffic, reproducing the
// paper's 60% vs 80% headline with a fraction of the work.
package main

import (
	"fmt"
	"log"

	"smart"
)

// saturated reports whether the configuration is saturated at the load:
// accepted falls short of offered by more than the tolerance.
func saturated(cfg smart.Config, load float64) bool {
	cfg.Load = load
	res, err := smart.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  load %.3f -> accepted %.3f\n", load, res.Sample.Accepted)
	return res.Sample.Offered-res.Sample.Accepted > 0.02
}

// bisect returns the saturation load within tol, assuming the network is
// stable at lo and saturated at hi.
func bisect(cfg smart.Config, lo, hi, tol float64) float64 {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if saturated(cfg, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

func main() {
	for _, alg := range []string{smart.AlgDeterministic, smart.AlgDuato} {
		cfg := smart.Config{
			Network:   smart.NetworkCube,
			Algorithm: alg,
			VCs:       4,
			Pattern:   smart.PatternUniform,
			Seed:      3,
			// A shorter horizon is fine for bisection: each probe only
			// needs a stable yes/no, not a publication-grade curve.
			Warmup:  1000,
			Horizon: 10000,
		}
		fmt.Printf("bisecting saturation of cube %s under uniform traffic:\n", alg)
		sat := bisect(cfg, 0.2, 1.0, 0.02)
		fmt.Printf("=> saturation at %.0f%% of capacity\n\n", 100*sat)
	}
	fmt.Println("paper (§9): deterministic saturates at 60%, Duato's adaptive at 80%")
}
