package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntRange(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(10, 60)
		if v < 10 || v > 60 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 51 {
		t.Fatalf("IntRange covered %d/51 values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(1)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

// TestBinomialMatchesExact checks that the geometric-skip sampler and the
// n-trial reference sampler agree in mean across a range of (n, p).
func TestBinomialMatchesExact(t *testing.T) {
	r := NewRNG(123)
	cases := []struct {
		n int
		p float64
	}{
		{100, 0.001}, {100, 0.01}, {100, 0.3}, {100, 0.7},
		{1000, 0.0001}, {10, 0.5}, {5, 0.9},
	}
	for _, c := range cases {
		const trials = 20000
		var skip, exact float64
		for i := 0; i < trials; i++ {
			skip += float64(r.Binomial(c.n, c.p))
			exact += float64(r.BinomialExact(c.n, c.p))
		}
		skip /= trials
		exact /= trials
		want := float64(c.n) * c.p
		tol := 4 * math.Sqrt(float64(c.n)*c.p*(1-c.p)/trials) * 2
		if tol < 1e-3 {
			tol = 1e-3
		}
		if math.Abs(skip-want) > tol {
			t.Errorf("Binomial(%d,%v) mean=%v want %v +- %v", c.n, c.p, skip, want, tol)
		}
		if math.Abs(exact-want) > tol {
			t.Errorf("BinomialExact(%d,%v) mean=%v want %v +- %v", c.n, c.p, exact, want, tol)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	r := NewRNG(77)
	err := quick.Check(func(n16 uint16, pv uint16) bool {
		n := int(n16 % 500)
		p := float64(pv) / 65535
		v := r.Binomial(n, p)
		return v >= 0 && v <= n
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := NewRNG(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Fatalf("Binomial(100, 0) = %d", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Fatalf("Binomial(100, 1) = %d", got)
	}
}

func TestECDF(t *testing.T) {
	var e ECDF
	for _, v := range []float64{1, 2, 3, 4, 5} {
		e.Add(v)
	}
	if got := e.At(3); got != 0.6 {
		t.Fatalf("At(3) = %v, want 0.6", got)
	}
	if got := e.At(0); got != 0 {
		t.Fatalf("At(0) = %v, want 0", got)
	}
	if got := e.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if q := e.Quantile(0.5); q != 3 {
		t.Fatalf("Quantile(0.5) = %v, want 3", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 5 {
		t.Fatalf("Quantile(1) = %v, want 5", q)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.At(1) != 0 || e.Quantile(0.5) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF should return zeros")
	}
}

// ECDF.At must be monotone non-decreasing: a property-based check.
func TestECDFMonotone(t *testing.T) {
	r := NewRNG(4)
	var e ECDF
	for i := 0; i < 500; i++ {
		e.Add(r.Float64() * 100)
	}
	err := quick.Check(func(a, b float64) bool {
		x, y := math.Mod(math.Abs(a), 100), math.Mod(math.Abs(b), 100)
		if x > y {
			x, y = y, x
		}
		return e.At(x) <= e.At(y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Fatalf("std = %v, want ~2.138", s.Std)
	}
	if s.N != 8 {
		t.Fatalf("n = %d", s.N)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0", s.CI95)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.CI95 != 0 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

func TestBernoulliKL(t *testing.T) {
	if kl := BernoulliKL(0.5, 0.5); kl != 0 {
		t.Fatalf("KL(p||p) = %v, want 0", kl)
	}
	if kl := BernoulliKL(0.9, 0.1); kl <= 0 {
		t.Fatalf("KL(0.9||0.1) = %v, want > 0", kl)
	}
	// KL grows as the distributions separate.
	if BernoulliKL(0.9, 0.1) <= BernoulliKL(0.6, 0.4) {
		t.Fatal("KL not increasing with separation")
	}
	if !math.IsInf(BernoulliKL(0.5, 0), 1) {
		t.Fatal("KL against degenerate r should be +Inf")
	}
}

func BenchmarkBinomialSmallP(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Binomial(100, 1e-4)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func TestWilsonInterval(t *testing.T) {
	// Reference: Wilson (1927) interval for 45/50 at z=1.96 is ~[0.787, 0.953].
	lo, hi := WilsonInterval(45, 50, 1.96)
	if lo < 0.78 || lo > 0.80 || hi < 0.94 || hi > 0.96 {
		t.Fatalf("WilsonInterval(45, 50, 1.96) = [%v, %v]", lo, hi)
	}
	// Degenerate and boundary behavior.
	if lo, hi := WilsonInterval(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Fatalf("zero trials: [%v, %v], want [0, 1]", lo, hi)
	}
	if lo, hi := WilsonInterval(10, 10, 0); lo != 1 || hi != 1 {
		t.Fatalf("z = 0 must collapse to the point estimate: [%v, %v]", lo, hi)
	}
	// p = 1 keeps a nontrivial lower limit and hi clamped to 1.
	lo, hi = WilsonInterval(20, 20, 2.576)
	if hi != 1 || lo >= 1 || lo < 0.7 {
		t.Fatalf("WilsonInterval(20, 20) = [%v, %v]", lo, hi)
	}
	// p = 0 mirrors it.
	lo, hi = WilsonInterval(0, 20, 2.576)
	if lo != 0 || hi <= 0 || hi > 0.3 {
		t.Fatalf("WilsonInterval(0, 20) = [%v, %v]", lo, hi)
	}
	// More trials must narrow the interval.
	lo1, hi1 := WilsonInterval(90, 100, 1.96)
	lo2, hi2 := WilsonInterval(900, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval did not narrow with more trials")
	}
}
