// Package sim provides the deterministic cycle-driven simulation kernel
// used by the SMART network model: a clock, an ordered set of update
// stages, per-entity pseudo-random number streams, and stop conditions.
//
// The kernel is deliberately minimal. A wormhole network advances in
// lock-step: every clock cycle each hardware structure (links, crossbars,
// routing logic, injection interfaces) performs at most one unit of work.
// The Engine models exactly that: a list of Stages executed in a fixed
// order once per cycle, with determinism guaranteed by seeded RNG streams
// so that a simulation is a pure function of its configuration.
package sim

// SplitMix64 is a tiny splittable PRNG used to seed the main generators.
// It follows Steele, Lea and Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014. Its only role here is seed expansion: a single
// user-supplied seed is stretched into independent, well-mixed streams for
// every traffic source in the network.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a seed expander with the given initial state.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value of the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator (Blackman & Vigna). One RNG instance is
// owned by each traffic source so that packet generation is independent of
// everything else in the simulation: adding instrumentation or reordering
// unrelated stages can never perturb the workload.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, per the
// xoshiro authors' recommendation. A zero seed is valid.
func NewRNG(seed uint64) *RNG {
	sm := NewSplitMix64(seed)
	r := &RNG{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// The all-zero state is the one invalid state of xoshiro; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits of
// precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Debiasing uses Lemire's nearly-divisionless method.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// mul64 returns the 128-bit product of a and b as (hi, lo). The standard
// library exposes this as math/bits.Mul64; it is re-derived here to keep
// the arithmetic explicit and dependency-free in the kernel's hot path.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}
