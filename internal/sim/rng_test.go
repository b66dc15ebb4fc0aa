package sim

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSplitMix64SeedsDiffer(t *testing.T) {
	a, b := NewSplitMix64(1), NewSplitMix64(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestSplitMix64ZeroSeedUsable(t *testing.T) {
	s := NewSplitMix64(0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[s.Next()] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("zero-seeded SplitMix64 repeated values: %d distinct of 1000", len(seen))
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	// Adjacent seeds (the per-node seeding pattern) must give unrelated
	// streams.
	a, b := NewRNG(100), NewRNG(101)
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("adjacent seeds matched %d/1000 draws", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	// Standard error is 1/sqrt(12 n) ~ 6.5e-4; allow 6 sigma.
	if math.Abs(mean-0.5) > 0.004 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Expected 10000; binomial sd ~ 95; allow 6 sigma.
		if math.Abs(float64(c)-n/10) > 600 {
			t.Fatalf("Intn(10) value %d drawn %d times, want ~%d", v, c, n/10)
		}
	}
}

func TestIntnOne(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		freq := float64(hits) / n
		sd := math.Sqrt(p*(1-p)/n) + 1e-9
		if math.Abs(freq-p) > 6*sd+1e-9 {
			t.Fatalf("Bernoulli(%v) frequency %v", p, freq)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := r.Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermShuffles(t *testing.T) {
	// Over many draws, element 0 should land roughly uniformly.
	r := NewRNG(17)
	const size, n = 8, 40000
	counts := make([]int, size)
	for i := 0; i < n; i++ {
		p := r.Perm(size)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if math.Abs(float64(c)-n/size) > 500 {
			t.Fatalf("element 0 at position %d in %d/%d draws", pos, c, n)
		}
	}
}

func TestMul64MatchesStdlib(t *testing.T) {
	check := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
