package stats

import "math"

// Binomial returns a sample from Binomial(n, p): the number of packets (out
// of n) dropped by a link with drop probability p.
//
// Datacenter drop rates are tiny (1e-8 .. 1e-2), so the expected count n*p is
// usually far below one. The sampler therefore uses geometric skipping —
// O(n*p + 1) expected work — instead of n Bernoulli trials, falling back to
// inversion only when p is large.
func (r *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	if p > 0.5 {
		// Symmetry keeps the skip distances long.
		return n - r.Binomial(n, 1-p)
	}
	lq := math.Log1p(-p) // log(1-p), negative
	count := 0
	i := 0
	for {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		skip := int(math.Log(u) / lq) // failures before next success
		i += skip + 1
		if i > n {
			return count
		}
		count++
	}
}

// BinomialNonzero draws from Binomial(n, p) conditioned on the result being
// at least 1. It panics when the conditioning event is impossible (n <= 0 or
// p <= 0).
//
// Rejection-resampling Binomial(n, p) until nonzero would take an expected
// 1/(1-(1-p)^n) attempts — millions at datacenter noise rates — so instead
// the sampler is exact and O(n*p + 1): the index J of the first success is
// drawn from its closed-form conditional law (a geometric truncated to n
// trials, inverted analytically), and the remaining n-J trials contribute an
// unconditional Binomial(n-J, p). This is the survival-gated simulator's
// "first dropping link draws a nonzero count" primitive.
func (r *RNG) BinomialNonzero(n int, p float64) int {
	if n <= 0 || p <= 0 {
		panic("stats: BinomialNonzero conditioned on an impossible event")
	}
	if p >= 1 {
		return n
	}
	lq := math.Log1p(-p) // log(1-p), negative
	// T = P(X >= 1) = 1 - (1-p)^n, computed to full precision at tiny p.
	T := -math.Expm1(float64(n) * lq)
	u := r.Float64()
	// Invert P(J <= j | X >= 1) = (1 - (1-p)^j)/T at u.
	j := int(math.Ceil(math.Log1p(-u*T) / lq))
	if j < 1 {
		j = 1
	}
	if j > n {
		j = n
	}
	return 1 + r.Binomial(n-j, p)
}

// Reference oracle: BinomialExact draws Binomial(n, p) with n independent
// Bernoulli trials, for tests of Binomial and the gated drop sampler.
func (r *RNG) BinomialExact(n int, p float64) int {
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			count++
		}
	}
	return count
}
