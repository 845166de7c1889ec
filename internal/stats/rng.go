// Package stats provides the deterministic random-number generation and
// small-sample statistics used throughout vigil.
//
// Every stochastic component in vigil (traffic generation, ECMP seeding,
// drop sampling, solver tie-breaking) draws from an explicitly seeded RNG so
// that simulations, experiments and tests are reproducible bit-for-bit.
package stats

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is not safe for concurrent use;
// derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream NewRNG(seed) would produce, without
// allocating. It is the hot-path form of NewRNG for callers that reuse one
// generator across many streams (e.g. one RNG value per worker reseeded per
// flow).
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state at the time of the call, so a
// fixed call order yields fixed children.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// DeriveRNG returns the generator for the stream-th named substream of seed.
// Unlike Split, the result depends only on (seed, stream) — not on how many
// other streams were derived before it — so stream i can be drawn by any
// worker in any order and still produce identical values. This is the basis
// of the parallel simulator's determinism: each flow's drop draws come from
// DeriveRNG(epochSeed, flowIndex), making the epoch independent of both the
// worker count and the flow processing order.
//
// Seed and stream are decorrelated by two SplitMix64 rounds before seeding
// xoshiro, so adjacent stream indices yield unrelated sequences.
func DeriveRNG(seed, stream uint64) *RNG {
	r := new(RNG)
	r.Derive(seed, stream)
	return r
}

// Derive resets r in place to the stream-th substream of seed, producing
// exactly the stream DeriveRNG(seed, stream) would, without allocating.
// This is the epoch hot path's per-flow reseed: each worker owns one RNG
// value and Derives it for every flow it simulates.
func (r *RNG) Derive(seed, stream uint64) {
	next, h1 := splitmix64(seed)
	_, h2 := splitmix64(next ^ stream)
	r.Seed(h1 ^ rotl(h2, 27))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// uniformDomain decorrelates DeriveUniform's output from the xoshiro stream
// that Derive(seed, stream) produces for the same (seed, stream) pair.
const uniformDomain = 0x53c5ca59b93161ff

// DeriveUniform returns a single uniform [0, 1) value for the stream-th
// substream of seed — the counter-based shortcut for code that needs exactly
// one draw per stream (the simulator's per-flow survival gate) and would
// waste time seeding a full generator for it. The value is a fixed function
// of (seed, stream) only, like DeriveRNG, and is decorrelated from the
// stream Derive(seed, stream) yields, so a caller may consume the gate draw
// here and fall back to the derived RNG for follow-up draws.
func DeriveUniform(seed, stream uint64) float64 {
	next, h1 := splitmix64(seed)
	_, h2 := splitmix64(next ^ stream)
	_, g := splitmix64(h1 ^ rotl(h2, 27) ^ uniformDomain)
	return float64(g>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // bias negligible for n << 2^64
}

// IntRange returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
