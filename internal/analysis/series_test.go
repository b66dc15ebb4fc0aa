package analysis

import (
	"testing"

	"smart/internal/telemetry"
)

// sampled runs newCube's fabric for cycles with a telemetry sampler at
// the given cadence and returns the sampled rates and the flits
// delivered in total.
func sampled(t *testing.T, rate float64, cycles, every int64) ([]RatePoint, int64) {
	t.Helper()
	f, _, e := newCube(t, rate, false)
	sp := telemetry.NewSampler(f, e, telemetry.RunInfo{}, every)
	sp.Register(e)
	e.Run(cycles)
	rates, err := Rates(telemetry.RecordOf(sp))
	if err != nil {
		t.Fatal(err)
	}
	return rates, f.Counters().FlitsDelivered
}

func TestRatesFollowSamplingCadence(t *testing.T) {
	rates, _ := sampled(t, 0.2, 1000, 100)
	if len(rates) != 10 {
		t.Fatalf("%d intervals over 1000 cycles at every=100", len(rates))
	}
	for i, p := range rates {
		if p.Cycle != int64((i+1)*100) || p.Interval != 100 {
			t.Fatalf("interval %d ends at cycle %d after %d cycles", i, p.Cycle, p.Interval)
		}
	}
}

func TestRatesAccountEveryDeliveredFlit(t *testing.T) {
	rates, delivered := sampled(t, 0.2, 1000, 100)
	var sum float64
	for _, p := range rates {
		sum += p.DeliveryRate * float64(p.Interval)
	}
	if int64(sum+0.5) != delivered {
		t.Fatalf("summed delivery rate %v flits, counters say %d", sum, delivered)
	}
}

func TestSteadyStateByReachedAtLightLoad(t *testing.T) {
	rates, _ := sampled(t, 0.2, 4000, 200)
	cycle, ok := SteadyStateBy(rates, 0.5)
	if !ok {
		t.Fatal("steady state never reached at a light load")
	}
	if cycle > 2000 {
		t.Fatalf("steady state only at cycle %d; the paper's 2000-cycle warm-up would be insufficient", cycle)
	}
}

func TestSteadyStateByNeedsTwoIntervals(t *testing.T) {
	if _, ok := SteadyStateBy(nil, 0.1); ok {
		t.Fatal("empty series claimed steady state")
	}
	if _, ok := SteadyStateBy([]RatePoint{{Cycle: 100, Interval: 100, DeliveryRate: 1}}, 0.1); ok {
		t.Fatal("one interval claimed steady state")
	}
	if _, ok := SteadyStateBy([]RatePoint{{Cycle: 100, DeliveryRate: 1}, {Cycle: 200}}, 0.1); ok {
		t.Fatal("series ending at a zero rate claimed steady state")
	}
	// A series still oscillating at its end settles only at its last
	// interval.
	flip := []RatePoint{{Cycle: 100, DeliveryRate: 1}, {Cycle: 200, DeliveryRate: 2}, {Cycle: 300, DeliveryRate: 1}}
	if cycle, ok := SteadyStateBy(flip, 0.1); !ok || cycle != 300 {
		t.Fatalf("oscillating series settled at %d (%v), want its last interval 300", cycle, ok)
	}
}
