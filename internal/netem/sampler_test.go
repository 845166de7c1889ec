package netem

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// singleFailureSim builds a zero-noise simulator with exactly one link of
// the first host pair's path dropping at rate p, and returns the sim and
// that path. Every drop the sampler produces must come from that link, so
// the flow's total-drop distribution is Binomial(packets, p) — directly
// comparable against stats.BinomialExact.
func singleFailureSim(t testing.TB, p float64) (*Sim, []topology.LinkID) {
	t.Helper()
	topo, err := topology.New(topology.Config{Pods: 1, ToRsPerPod: 2, T1PerPod: 1, T2: 0, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topo:    topo,
		NoiseLo: 0, NoiseHi: 0,
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 1, Hi: 1},
			PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
		},
		Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var path ecmp.PathBuf
	if err := s.router.PathInto(0, 1, ecmp.FiveTuple{
		SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[1].IP,
		SrcPort: 33333, DstPort: 443, Proto: ecmp.ProtoTCP,
	}, &path); err != nil {
		t.Fatal(err)
	}
	// Put the failure mid-path so links before and after it exercise the
	// conditional walk's clean-link branches.
	s.InjectFailure(path.Links()[1], p)
	return s, slices.Clone(path.Links())
}

// gatedSamples draws n total-drop samples through the production sampler —
// survival gate, conditional first-drop walk, unconditional tail cascade —
// each sample from its own per-flow stream, exactly as an epoch would.
func gatedSamples(s *Sim, links []topology.LinkID, packets, n int, epochSeed uint64) []int {
	out := make([]int, n)
	var rng stats.RNG
	var perLink [ecmp.MaxPathLinks]uint16
	for i := range out {
		out[i] = s.sampleFlowDrops(epochSeed, int64(i), &rng, links, packets, &perLink)
		for li := range links {
			if perLink[li] != 0 && links[li] != links[1] {
				panic("drops recorded on a zero-rate link")
			}
		}
	}
	return out
}

// chiSquaredTwoSample computes the two-sample chi-squared statistic between
// integer sample sets a and b, pooling outcome bins until each pooled bin
// holds at least 10 combined observations. Returns the statistic and the
// pooled degrees of freedom.
func chiSquaredTwoSample(a, b []int) (chi2 float64, df int) {
	max := 0
	for _, v := range a {
		if v > max {
			max = v
		}
	}
	for _, v := range b {
		if v > max {
			max = v
		}
	}
	ca := make([]float64, max+1)
	cb := make([]float64, max+1)
	for _, v := range a {
		ca[v]++
	}
	for _, v := range b {
		cb[v]++
	}
	k1 := math.Sqrt(float64(len(b)) / float64(len(a)))
	k2 := math.Sqrt(float64(len(a)) / float64(len(b)))
	var px, py float64
	flush := func() {
		if px+py > 0 {
			d := k1*px - k2*py
			chi2 += d * d / (px + py)
			df++
		}
		px, py = 0, 0
	}
	for i := 0; i <= max; i++ {
		px += ca[i]
		py += cb[i]
		if px+py >= 10 {
			flush()
		}
	}
	flush()
	if df > 0 {
		df--
	}
	return chi2, df
}

// The survival-gated sampler must agree in distribution with the n-trial
// reference BinomialExact across the paper's whole drop-rate regime, from
// noise-floor rates (where the gate all but always short-circuits and the
// conditional machinery handles the 1-in-10⁶ tail) to heavy failure rates
// (where nearly every flow cascades).
func TestGatedSamplerMatchesBinomialExact(t *testing.T) {
	const packets = 100
	for _, tc := range []struct {
		p       float64
		samples int
	}{
		{1e-8, 400000},
		{1e-6, 400000},
		{1e-3, 60000},
		{0.3, 20000},
	} {
		if testing.Short() {
			// The race job runs -short: a tenth of the samples keeps the
			// distributional guard while the full-sample run stays on the
			// ordinary test job. df (and so the bound) adapts to the pooled
			// bin counts, so the smaller sample needs no retuning.
			tc.samples /= 10
		}
		s, links := singleFailureSim(t, tc.p)
		got := gatedSamples(s, links, packets, tc.samples, 23)
		ref := stats.NewRNG(29)
		want := make([]int, tc.samples)
		for i := range want {
			want[i] = ref.BinomialExact(packets, tc.p)
		}
		chi2, df := chiSquaredTwoSample(got, want)
		// Deterministic seeds make this a regression bound rather than a
		// flaky hypothesis test; 3·df+15 is far beyond any plausible
		// quantile of chi-squared(df).
		if limit := 3*float64(df) + 15; chi2 > limit {
			t.Fatalf("p=%g: chi2=%.1f (df=%d) exceeds %.1f", tc.p, chi2, df, limit)
		}
		// Cross-check the nonzero mass directly: with both samplers it must
		// sit within Poisson-scale noise of n·P(X>=1).
		gn, wn := 0, 0
		for i := range got {
			if got[i] > 0 {
				gn++
			}
			if want[i] > 0 {
				wn++
			}
		}
		pAny := -math.Expm1(float64(packets) * math.Log1p(-tc.p))
		expect := float64(tc.samples) * pAny
		slack := 6*math.Sqrt(expect) + 6
		if math.Abs(float64(gn)-expect) > slack || math.Abs(float64(wn)-expect) > slack {
			t.Fatalf("p=%g: nonzero counts gated=%d exact=%d, want %.1f±%.1f", tc.p, gn, wn, expect, slack)
		}
	}
}

// A dropping flow's per-link vector must still conserve packets and stay on
// the path when several links fail at once (first-drop link conditional,
// tail links unconditional).
func TestGatedSamplerMultiFailureConservation(t *testing.T) {
	s, links := singleFailureSim(t, 0.05)
	s.InjectFailure(links[2], 0.1)
	var rng stats.RNG
	var perLink [ecmp.MaxPathLinks]uint16
	const packets = 100
	seen := 0
	for fi := int64(0); fi < 20000; fi++ {
		total := s.sampleFlowDrops(31, fi, &rng, links, packets, &perLink)
		sum := 0
		for li := range links {
			sum += int(perLink[li])
		}
		if total > 0 {
			seen++
			if sum != total {
				t.Fatalf("flow %d: per-link sum %d != total %d", fi, sum, total)
			}
			if total > packets {
				t.Fatalf("flow %d: dropped %d of %d packets", fi, total, packets)
			}
		}
	}
	if seen < 19000 {
		t.Fatalf("only %d of 20000 flows dropped at 5%%+10%%", seen)
	}
}

// The steady-state per-flow path must be allocation-free: a warmed Sim's
// epoch cost is O(1) allocations however many flows it simulates. This is
// the regression guard for the zero-allocation hot path.
func TestSteadyStateEpochAllocs(t *testing.T) {
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 8, T1PerPod: 3, T2: 4, HostsPerToR: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topo: topo,
		// Noise so low the gate is exercised on every flow but essentially
		// never fires: the epoch stays on the zero-allocation path.
		NoiseLo: 0, NoiseHi: 1e-12,
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 50, Hi: 50},
			PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
		},
		Seed:        3,
		Parallelism: 1, // inline: no goroutine bookkeeping in the count
	})
	if err != nil {
		t.Fatal(err)
	}
	warm := s.RunEpoch() // allocate and retain the reusable scratch
	flows := warm.TotalFlows
	if flows < 5000 {
		t.Fatalf("want a multi-chunk epoch, got %d flows", flows)
	}
	avg := testing.AllocsPerRun(10, func() {
		ep := s.RunEpoch()
		if len(ep.Failed) > 0 {
			t.Fatalf("steady-state epoch dropped packets (%d failed flows)", len(ep.Failed))
		}
	})
	// The fixed per-epoch cost is the Epoch struct and the fan-out closure;
	// per-flow that must round to zero.
	if avg > 4 {
		t.Fatalf("steady-state epoch allocates %.1f times (%d flows)", avg, flows)
	}
	if perFlow := avg / float64(flows); perFlow > 0.005 {
		t.Fatalf("steady-state per-flow allocations %.4f, want ~0", perFlow)
	}
	// Nor is anything sized by the fabric: per-link ground truth is derived
	// on demand, not carried as a dense vector (8 B per link).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunEpoch()
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1024 {
		t.Fatalf("steady-state epoch allocates %d B on %d links", spent, len(topo.Links))
	}
}
