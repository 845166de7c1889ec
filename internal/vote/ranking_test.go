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
// sort on (units descending, LinkID ascending).
func rankingOracle(t *Tally) []LinkVotes {
	order := make([]int, len(t.links))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(t.units[b], t.units[a]); c != 0 {
			return c
		}
		return cmp.Compare(t.links[a], t.links[b])
	})
	out := make([]LinkVotes, len(order))
	for k, i := range order {
		out[k] = LinkVotes{Link: t.links[i], Votes: t.votes[i]}
	}
	return out
}

// tallyOf is the tally of links (ascending) with the given units.
func tallyOf(links []topology.LinkID, units []int64) *Tally {
	t := &Tally{links: links, units: units, votes: make([]float64, len(units))}
	for i, u := range units {
		t.votes[i] = float64(u) / voteUnits
	}
	return t
}

// syntheticTally is a tally over m links whose units are drawn by draw, the
// links ascending with random gaps.
func syntheticTally(rng *stats.RNG, m int, draw func(i int) int64) *Tally {
	links, units := make([]topology.LinkID, m), make([]int64, m)
	l := topology.LinkID(0)
	for i := range links {
		l += topology.LinkID(1 + rng.Intn(40))
		links[i], units[i] = l, draw(i)
	}
	return tallyOf(links, units)
}

// epochVotes draws units the way a datacenter epoch's tally holds them
// (measured on BenchmarkAnalyze/datacenter's epoch: 3,940 of 4,159 links at
// exactly 1/6, 13 distinct values): most links carry one failed flow's 1/h,
// mostly h = 6, a few the sum of several, and a handful are hot.
func epochVotes(rng *stats.RNG) func(int) int64 {
	hop := func() int64 {
		switch u := rng.Intn(20); {
		case u == 0:
			return voteUnits / 2
		case u <= 2:
			return voteUnits / 4
		}
		return voteUnits / 6
	}
	return func(i int) int64 {
		flows := 1
		switch {
		case i%1000 == 7:
			flows = 20 + rng.Intn(100)
		case rng.Intn(16) == 0:
			flows = 2 + rng.Intn(3)
		}
		var v int64
		for ; flows > 0; flows-- {
			v += hop()
		}
		return v
	}
}

// Ranking must be the comparison sort's output exactly — every tie in
// LinkID order — for every tally size and distribution of units, and must
// hand out memory of its own. The draws named for floats when tallies were
// floats now draw units: "last-ulp" neighbouring counts around 3/4 of a
// vote, "subnormal" the smallest counts, "huge" counts near the top of an
// int64 and "any-finite" any positive count.
func TestRankingMatchesComparisonSort(t *testing.T) {
	rng := stats.NewRNG(23)
	draws := []struct {
		name string
		draw func(int) int64
	}{
		{"epoch", epochVotes(rng)},
		{"all-equal", func(int) int64 { return voteUnits / 6 }},
		{"tie-runs", func(i int) int64 { return int64(1+i/97%5) * voteUnits / 4 }},
		{"last-ulp", func(int) int64 { return 3*voteUnits/4 + int64(rng.Intn(3)) }},
		{"subnormal", func(int) int64 { return 1 + int64(rng.Intn(1<<20)) }},
		{"huge", func(int) int64 { return math.MaxInt64 / int64(1+rng.Intn(1<<20)) }},
		{"any-finite", func(int) int64 { return 1 + int64(rng.Uint64()%(math.MaxInt64-1)) }},
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
			got[i] = LinkVotes{Link: -1, Votes: -1}
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
			check(t, syntheticTally(rng, 3*g+7, func(i int) int64 { return int64(1 + i*7919%g) }))
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
			if got, want := linkVotes(tl.links, tl.votes, rs.rank(tl.units)), rankingOracle(tl); !slices.Equal(got, want) {
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
			// Splitting tallies exactly as the whole.
			if !slices.Equal(whole.links, split.links) || !slices.Equal(whole.units, split.units) || !slices.Equal(whole.votes, split.votes) {
				t.Fatalf("split tally differs from the whole: %d links, whole %d", len(split.links), len(whole.links))
			}
		})
	}
}

// distinctVotes gives every link a vote of its own, falling as the slot
// rises: the ranking's worst case, one group per link.
func distinctVotes(i int) int64 { return 1 << 40 / int64(i+1) }

// BenchmarkRanking's distinct rows give every link its own vote: falling
// with the slot, so the distinct keys reach the sort already in order, or
// (-shuffled) in a random order of the links.
func BenchmarkRanking(b *testing.B) {
	for _, bc := range []struct {
		name               string
		m                  int
		distinct, shuffled bool
	}{{"30", 30, false, false}, {"1k", 1000, false, false}, {"4k", 4220, false, false}, {"64k", 1 << 16, false, false},
		{"4k-distinct", 4220, true, false}, {"64k-distinct", 1 << 16, true, false},
		{"4k-distinct-shuffled", 4220, true, true}, {"64k-distinct-shuffled", 1 << 16, true, true}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(uint64(bc.m))
			draw := epochVotes(rng)
			if bc.distinct {
				draw = distinctVotes
			}
			if bc.shuffled {
				perm := rng.Perm(bc.m)
				draw = func(i int) int64 { return distinctVotes(perm[i]) }
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
