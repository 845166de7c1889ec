package stats

import "sort"

// ECDF is an empirical cumulative distribution function over float64 samples.
// The zero value is ready to use.
type ECDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (e *ECDF) Add(v float64) {
	e.samples = append(e.samples, v)
	e.sorted = false
}

// AddAll appends all samples.
func (e *ECDF) AddAll(vs []float64) {
	e.samples = append(e.samples, vs...)
	e.sorted = false
}

// N reports the number of samples.
func (e *ECDF) N() int { return len(e.samples) }

func (e *ECDF) sort() {
	if !e.sorted {
		sort.Float64s(e.samples)
		e.sorted = true
	}
}

// At returns P(X <= x), the fraction of samples at or below x.
// It returns 0 for an empty ECDF.
func (e *ECDF) At(x float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.sort()
	i := sort.SearchFloat64s(e.samples, x)
	// Advance over samples equal to x (SearchFloat64s returns the first).
	for i < len(e.samples) && e.samples[i] <= x {
		i++
	}
	return float64(i) / float64(len(e.samples))
}

// Quantile returns the q-th sample quantile, q in [0, 1].
// It returns 0 for an empty ECDF.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.sort()
	if q <= 0 {
		return e.samples[0]
	}
	if q >= 1 {
		return e.samples[len(e.samples)-1]
	}
	i := int(q * float64(len(e.samples)))
	if i >= len(e.samples) {
		i = len(e.samples) - 1
	}
	return e.samples[i]
}
