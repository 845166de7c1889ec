package vote

import (
	"fmt"
	"slices"
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// findProblemLinksOracle is Algorithm 1 as it was before it walked the
// ranking: every pick an ascending scan of all slots (equal votes go to the
// lower slot), every discount pulled through Fraction for every slot.
func findProblemLinksOracle(t *Tally, opts DetectOptions) []topology.LinkID {
	adj := opts.Adjuster
	votes := slices.Clone(t.votes)
	inB := make([]bool, len(votes))
	var total int64
	for _, u := range t.units {
		total += u
	}
	cutoff := opts.ThresholdFrac * (float64(total) / voteUnits)
	var b []topology.LinkID
	for {
		lmax, vmax := -1, 0.0
		for s, v := range votes {
			if v > vmax && !inB[s] {
				lmax, vmax = s, v
			}
		}
		if lmax < 0 || vmax < cutoff {
			return b
		}
		inB[lmax] = true
		b = append(b, t.links[lmax])
		adj.Begin(t.links[lmax])
		for s, l := range t.links {
			if inB[s] || votes[s] == 0 {
				continue
			}
			if f := adj.Fraction(l); f > 0 {
				if votes[s] -= vmax * f; votes[s] < 0 {
					votes[s] = 0
				}
			}
		}
	}
}

// quarterAdjuster spills exact binary fractions — 0, 1/4, 1/2 or all of a
// link's votes, fixed per (blamed, other) pair — so that on tallies of
// quarter votes discounted votes tie exactly with other links' original
// ones, and some are zeroed.
type quarterAdjuster struct{ lmax topology.LinkID }

func (q *quarterAdjuster) Begin(lmax topology.LinkID) { q.lmax = lmax }

func (q *quarterAdjuster) Fraction(k topology.LinkID) float64 {
	return [...]float64{0, 0.25, 0.5, 1}[(uint32(q.lmax)*2654435761^uint32(k)*40503)>>7%4]
}

// quarterReports draws n reports over links [0, links): paths of one, two
// or four links, so every vote is a multiple of 1/4 and many tie.
func quarterReports(rng *stats.RNG, n, links int) []Report {
	reports := make([]Report, n)
	for i := range reports {
		path := make([]topology.LinkID, []int{1, 2, 4}[rng.Intn(3)])
		for j := range path {
			path[j] = topology.LinkID(rng.Intn(links))
		}
		reports[i] = Report{FlowID: int64(i), Path: path}
	}
	return reports
}

// Algorithm 1 walking the ranking must blame exactly what the ascending
// argmax scan blames, in the same order — under every adjuster, with an
// observed adjuster over Localize's own index and over a foreign one, with
// exact ties between discounted and undiscounted votes, and zeroed votes.
func TestFindProblemLinksMatchesArgmaxScan(t *testing.T) {
	rng := stats.NewRNG(29)
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 4, T2: 2, HostsPerToR: 4})
	if err != nil {
		t.Fatal(err)
	}
	blamed := 0
	for trial := range 400 {
		links := []int{6, 20, len(topo.Links)}[trial%3]
		reports := quarterReports(rng, 1+rng.Intn(120), links)
		// The foreign adjuster sees other reports too, so its slots are not
		// the tally's.
		foreign := append(quarterReports(rng, rng.Intn(40), links+7), reports[:rng.Intn(len(reports))]...)
		opts := DetectOptions{ThresholdFrac: []float64{0.001, 0.01, 0.05}[rng.Intn(3)]}
		tl := NewTally()
		tl.AddAll(reports)
		check := func(name string, adj func() Adjuster, got func(DetectOptions) []topology.LinkID) {
			t.Helper()
			o := opts
			o.Adjuster = adj()
			want := findProblemLinksOracle(tl, o)
			o.Adjuster = adj()
			if g := got(o); !slices.Equal(g, want) {
				t.Fatalf("trial %d, %s, %+v: detected %v, argmax scan %v", trial, name, opts, g, want)
			}
			blamed += len(want)
		}
		public := func(o DetectOptions) []topology.LinkID { return FindProblemLinks(tl, o) }
		localize := func(o DetectOptions) []topology.LinkID {
			_, detected, _ := Localize(reports, o)
			return detected
		}
		check("none", func() Adjuster { return NoAdjuster{} }, public)
		check("quarters", func() Adjuster { return &quarterAdjuster{} }, public)
		check("quarters/localize", func() Adjuster { return &quarterAdjuster{} }, localize)
		// Localize's default: the observed adjuster over its own index.
		check("observed-own/localize", func() Adjuster { return NewObservedAdjuster(reports) }, func(o DetectOptions) []topology.LinkID {
			o.Adjuster = nil
			return localize(o)
		})
		check("observed-own", func() Adjuster { return NewObservedAdjuster(reports) }, public)
		check("observed-foreign", func() Adjuster { return NewObservedAdjuster(foreign) }, public)
		check("observed-foreign/localize", func() Adjuster { return NewObservedAdjuster(foreign) }, localize)
		if links == len(topo.Links) {
			check("analytic", func() Adjuster { return &AnalyticAdjuster{Topo: topo} }, public)
		}
	}
	if blamed < 1000 {
		t.Fatalf("only %d links blamed over all trials: the cases are too easy", blamed)
	}
}

// The walk's early stop is only exact if ties across ranking groups resolve
// as the scan resolves them: here link 5's discounted vote ties link 2's
// untouched one, and the lower link must win.
func TestFindProblemLinksTieAcrossGroups(t *testing.T) {
	tl := tallyOf([]topology.LinkID{2, 5, 9}, []int64{voteUnits / 2, voteUnits, 2 * voteUnits})
	// Blaming 9 (votes 2) discounts 5 by 2 × 1/4 = 0.5: 5 and 2 then tie.
	adj := &fixedAdjuster{spill: map[topology.LinkID]map[topology.LinkID]float64{9: {5: 0.25}}}
	opts := DetectOptions{ThresholdFrac: 0.01, Adjuster: adj}
	want := findProblemLinksOracle(tl, opts)
	if got := FindProblemLinks(tl, opts); !slices.Equal(got, want) || !slices.Equal(want, []topology.LinkID{9, 2, 5}) {
		t.Fatalf("detected %v, argmax scan %v, want [9 2 5]", got, want)
	}
}

// fixedAdjuster spills a fixed fraction per (blamed, other) pair.
type fixedAdjuster struct {
	spill map[topology.LinkID]map[topology.LinkID]float64
	lmax  topology.LinkID
}

func (f *fixedAdjuster) Begin(lmax topology.LinkID)         { f.lmax = lmax }
func (f *fixedAdjuster) Fraction(k topology.LinkID) float64 { return f.spill[f.lmax][k] }

// ClassifyFlows over a tally of other reports maps the tally's slots onto
// its own; the verdicts must be the per-path blame and noise rule read from
// that tally directly.
func TestClassifyFlowsForeignTally(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := range 50 {
		reports := quarterReports(rng, 1+rng.Intn(80), 30)
		tl := NewTally()
		tl.AddAll(quarterReports(rng, rng.Intn(80), 40))
		tl.AddAll(reports[:rng.Intn(len(reports))])
		var detected []topology.LinkID
		for _, lv := range tl.Ranking()[:min(3, len(tl.links))] {
			detected = append(detected, lv.Link)
		}
		got := ClassifyFlows(tl, detected, reports)
		ranking := tl.Ranking()
		for i, r := range reports {
			want := Verdict{FlowID: r.FlowID, Link: topology.NoLink, Noise: true}
			// The blame is the path's first link in the ranking: the most
			// voted, ties to the lower ID.
			if k := slices.IndexFunc(ranking, func(lv LinkVotes) bool { return slices.Contains(r.Path, lv.Link) }); k >= 0 {
				want.Link = ranking[k].Link
			}
			for _, l := range r.Path {
				if slices.Contains(detected, l) {
					want.Noise = false
				}
			}
			if got[i] != want {
				t.Fatalf("trial %d, report %d (path %v): verdict %+v, want %+v", trial, i, r.Path, got[i], want)
			}
		}
	}
}

// sortByLink must be a stable sort by link id for every digit split its
// largest id can choose: none, one pass, the first id that needs two, the
// datacenter fabric's range and the largest id a report can carry.
func TestSortByLinkMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(37)
	for _, maxLink := range []topology.LinkID{0, 1, 1<<13 - 1, 1 << 13, 1 << 18, 1<<31 - 1} {
		for _, n := range []int{0, 1, 5000} {
			t.Run(fmt.Sprintf("max=%d/n=%d", maxLink, n), func(t *testing.T) {
				keys := make([]uint64, n)
				for i := range keys {
					l := topology.LinkID(rng.Intn(int(maxLink) + 1))
					if i == n/2 {
						l = maxLink
					}
					keys[i] = uint64(l)<<32 | uint64(i)
				}
				want := slices.Clone(keys)
				slices.SortStableFunc(want, func(a, b uint64) int { return int(a>>32) - int(b>>32) })
				got, spare := sortByLink(keys, make([]uint64, n), maxLink)
				if !slices.Equal(got, want) {
					t.Fatal("differs from the stable sort")
				}
				if len(spare) != n {
					t.Fatalf("spare buffer has length %d, want %d", len(spare), n)
				}
			})
		}
	}
}
