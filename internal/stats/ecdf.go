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

func (e *ECDF) sort() {
	if !e.sorted {
		sort.Float64s(e.samples)
		e.sorted = true
	}
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
