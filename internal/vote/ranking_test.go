package vote

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// rankingOracle is Ranking as it was before the radix sort: a comparison
// sort on (votes descending, LinkID ascending).
func rankingOracle(t *Tally) []LinkVotes {
	out := make([]LinkVotes, len(t.links))
	for i, l := range t.links {
		out[i] = LinkVotes{Link: l, Votes: t.votes[i]}
	}
	slices.SortFunc(out, func(a, b LinkVotes) int {
		switch {
		case a.Votes > b.Votes:
			return -1
		case a.Votes < b.Votes:
			return 1
		}
		return cmp.Compare(a.Link, b.Link)
	})
	return out
}

// syntheticTally is a tally over m links whose votes are drawn by draw, the
// links ascending with random gaps.
func syntheticTally(rng *stats.RNG, m int, draw func(i int) float64) *Tally {
	t := &Tally{links: make([]topology.LinkID, m), votes: make([]float64, m)}
	l := topology.LinkID(0)
	for i := range t.links {
		l += topology.LinkID(1 + rng.Intn(40))
		t.links[i], t.votes[i] = l, draw(i)
	}
	return t
}

// epochVotes draws votes the way a datacenter epoch's tally holds them
// (measured on BenchmarkAnalyze/datacenter's epoch: 3,940 of 4,159 links at
// exactly 1/6, 13 distinct values): most links carry one failed flow's 1/h,
// mostly h = 6, a few the sum of several, and a handful are hot.
func epochVotes(rng *stats.RNG) func(int) float64 {
	hop := func() float64 {
		switch u := rng.Intn(20); {
		case u == 0:
			return 1.0 / 2
		case u <= 2:
			return 1.0 / 4
		}
		return 1.0 / 6
	}
	return func(i int) float64 {
		flows := 1
		switch {
		case i%1000 == 7:
			flows = 20 + rng.Intn(100)
		case rng.Intn(16) == 0:
			flows = 2 + rng.Intn(3)
		}
		var v float64
		for ; flows > 0; flows-- {
			v += hop()
		}
		return v
	}
}

// Ranking must be the comparison sort's output exactly — every tie in
// LinkID order — for every tally size and vote distribution, and must hand
// out memory of its own.
func TestRankingMatchesComparisonSort(t *testing.T) {
	rng := stats.NewRNG(23)
	ulp := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, 2)
		}
		return v
	}
	draws := []struct {
		name string
		draw func(int) float64
	}{
		{"epoch", epochVotes(rng)},
		{"all-equal", func(int) float64 { return 1.0 / 6 }},
		{"tie-runs", func(i int) float64 { return float64(1+i/97%5) / 4 }},
		{"last-ulp", func(int) float64 { return ulp(0.75, rng.Intn(3)) }},
		{"subnormal", func(int) float64 { return math.Float64frombits(1 + uint64(rng.Intn(1<<20))) }},
		{"huge", func(int) float64 { return math.MaxFloat64 / float64(1+rng.Intn(1<<20)) }},
		{"any-finite", func(int) float64 {
			return math.Float64frombits(1 + rng.Uint64()%(math.Float64bits(math.Inf(1))-1))
		}},
		{"distinct", distinctVotes},
	}
	check := func(t *testing.T, tl *Tally) {
		t.Helper()
		want := rankingOracle(tl)
		got := tl.Ranking()
		if !slices.Equal(got, want) {
			t.Fatalf("ranking of %d links differs from the comparison sort", len(tl.links))
		}
		// The result is the caller's: scribbling over it must not reach the
		// next ranking through pooled scratch.
		for i := range got {
			got[i] = LinkVotes{Link: -1, Votes: math.NaN()}
		}
		if again := tl.Ranking(); !slices.Equal(again, want) {
			t.Fatalf("ranking of %d links changed after the caller wrote to an earlier result", len(tl.links))
		}
	}
	for _, m := range []int{0, 1, 2, 30, 4000, 70000} {
		for _, d := range draws {
			t.Run(fmt.Sprintf("m=%d/%s", m, d.name), func(t *testing.T) {
				check(t, syntheticTally(rng, m, d.draw))
			})
		}
	}
	// Exactly g distinct votes, g on either side of each doubling of the
	// group table (it holds 64 groups, then 128, ...), spread over 3g+7
	// links.
	for _, g := range []int{63, 64, 65, 128, 129, 4096} {
		t.Run(fmt.Sprintf("groups=%d", g), func(t *testing.T) {
			check(t, syntheticTally(rng, 3*g+7, func(i int) float64 { return float64(1+i*7919%g) / 8 }))
		})
	}
	// The group table is presized from the previous call's group count: a
	// small tally after a large one, and a large one after a small one, on
	// the same scratch.
	t.Run("presized", func(t *testing.T) {
		rs := new(rankScratch)
		for _, tl := range []*Tally{
			syntheticTally(rng, 70000, distinctVotes),
			syntheticTally(rng, 30, epochVotes(rng)),
			syntheticTally(rng, 4000, distinctVotes),
			syntheticTally(rng, 4000, epochVotes(rng)),
			syntheticTally(rng, 200, distinctVotes),
			syntheticTally(rng, 70000, epochVotes(rng)),
		} {
			if got, want := tl.linkVotes(rs.rank(tl.votes)), rankingOracle(tl); !slices.Equal(got, want) {
				t.Fatalf("ranking of %d links differs from the comparison sort", len(tl.links))
			}
		}
	})
	// Tallies built from one batch and from two, over the same reports.
	for _, n := range []int{0, 1, 40, 3000} {
		reports := make([]Report, n)
		for i := range reports {
			path := make([]topology.LinkID, 2*(1+rng.Intn(3)))
			for j := range path {
				path[j] = topology.LinkID(rng.Intn(1 + 4*n))
			}
			reports[i] = Report{FlowID: int64(i), Path: path}
		}
		t.Run(fmt.Sprintf("reports=%d", n), func(t *testing.T) {
			whole, split := NewTally(), NewTally()
			whole.AddAll(reports)
			split.AddAll(reports[:n/2])
			split.AddAll(reports[n/2:])
			check(t, whole)
			check(t, split)
			// Splitting moves a vote by reassociation at most.
			if whole.Flows() != split.Flows() || !slices.Equal(whole.links, split.links) {
				t.Fatalf("split tally holds %d flows on %d links, whole %d on %d", split.Flows(), len(split.links), whole.Flows(), len(whole.links))
			}
			for i, v := range whole.votes {
				if math.Abs(v-split.votes[i]) > 1e-9 {
					t.Fatalf("link %d: split votes %v, whole %v", whole.links[i], split.votes[i], v)
				}
			}
		})
	}
}

// distinctVotes gives every link a vote of its own: the ranking's worst
// case, one group per link.
func distinctVotes(i int) float64 { return 1 / float64(i+1) }

func BenchmarkRanking(b *testing.B) {
	for _, bc := range []struct {
		name     string
		m        int
		distinct bool
	}{{"30", 30, false}, {"1k", 1000, false}, {"4k", 4220, false}, {"64k", 1 << 16, false},
		{"4k-distinct", 4220, true}, {"64k-distinct", 1 << 16, true}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(uint64(bc.m))
			draw := epochVotes(rng)
			if bc.distinct {
				draw = distinctVotes
			}
			t := syntheticTally(rng, bc.m, draw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := t.Ranking(); len(r) != bc.m {
					b.Fatal("short ranking")
				}
			}
		})
	}
}
