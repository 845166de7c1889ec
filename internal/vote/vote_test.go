package vote

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

func report(id int64, retx int, path ...topology.LinkID) Report {
	return Report{FlowID: id, Path: path, Retx: retx}
}

func TestTallyVoteValues(t *testing.T) {
	tl := NewTally()
	tl.AddAll([]Report{
		report(1, 2, 10, 11, 12, 13), // h=4 → 1/4 each
		report(2, 1, 10, 20, 21, 22, 23, 24),
	})
	votes := map[topology.LinkID]float64{}
	for _, lv := range tl.Ranking() {
		votes[lv.Link] = lv.Votes
	}
	if got := votes[10]; math.Abs(got-(0.25+1.0/6)) > 1e-12 {
		t.Fatalf("votes of link 10 = %v", got)
	}
	if got := votes[11]; got != 0.25 {
		t.Fatalf("votes of link 11 = %v", got)
	}
	if _, ok := votes[99]; ok || len(votes) != 9 {
		t.Fatalf("ranking %v: want the 9 path links and no other", tl.Ranking())
	}
}

// Conservation: each fully traced failed flow contributes exactly 1 vote in
// total (h links × 1/h), so the tally total equals the number of reports
// with non-empty paths.
func TestTallyConservation(t *testing.T) {
	rng := stats.NewRNG(1)
	f := func(nFlows uint8) bool {
		var reports []Report
		withPath := 0
		for i := 0; i < int(nFlows%50); i++ {
			h := rng.Intn(7)
			path := make([]topology.LinkID, h)
			for j := range path {
				path[j] = topology.LinkID(rng.Intn(100))
			}
			reports = append(reports, report(int64(i), 1, path...))
			if h > 0 {
				withPath++
			}
		}
		tl := NewTally()
		tl.AddAll(reports)
		var sum float64
		for _, lv := range tl.Ranking() {
			sum += lv.Votes
		}
		return math.Abs(sum-float64(withPath)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The observed adjuster's fractions, asked link by link, are the share of
// lmax's path entries whose report also carries k — counted per entry of k,
// so a link repeated within a path counts twice, as it votes twice.
func TestObservedAdjusterFractions(t *testing.T) {
	rng := stats.NewRNG(9)
	var reports []Report
	for i := 0; i < 120; i++ {
		path := []topology.LinkID{
			topology.LinkID(rng.Intn(5)),
			topology.LinkID(10 + rng.Intn(5)),
			topology.LinkID(20 + rng.Intn(5)),
		}
		switch rng.Intn(6) {
		case 0:
			path = append(path, path[rng.Intn(3)]) // a repeated link
		case 1:
			path[rng.Intn(3)] = topology.NoLink
		}
		reports = append(reports, report(int64(i), 1, path...))
	}
	count := func(path []topology.LinkID, l topology.LinkID) (n int) {
		for _, p := range path {
			if p == l {
				n++
			}
		}
		return n
	}
	adj := NewObservedAdjuster(reports)
	for lmax := topology.LinkID(0); lmax < 26; lmax++ {
		adj.Begin(lmax)
		for k := topology.LinkID(0); k < 26; k++ {
			nmax, shared := 0, 0
			for _, r := range reports {
				nmax += count(r.Path, lmax)
				if count(r.Path, lmax) > 0 {
					shared += count(r.Path, k)
				}
			}
			want := 0.0
			if nmax > 0 {
				want = float64(shared) / float64(nmax)
			}
			if got := adj.Fraction(k); got != want {
				t.Fatalf("Begin(%d).Fraction(%d) = %v, want %d/%d", lmax, k, got, shared, nmax)
			}
		}
	}
}

func TestRankingOrderAndTies(t *testing.T) {
	tl := NewTally()
	tl.AddAll([]Report{
		report(1, 1, 5, 6),       // 0.5 each
		report(2, 1, 5, 7, 8, 9), // 0.25 each
	})
	r := tl.Ranking()
	if r[0].Link != 5 || math.Abs(r[0].Votes-0.75) > 1e-12 {
		t.Fatalf("top of ranking = %+v", r[0])
	}
	if r[1].Link != 6 {
		t.Fatalf("second = %+v", r[1])
	}
	// 7,8,9 tie at 0.25: deterministic ID order.
	if r[2].Link != 7 || r[3].Link != 8 || r[4].Link != 9 {
		t.Fatalf("tie order wrong: %+v", r[2:])
	}
}

// A report with an empty path, or with one longer than any ECMP path
// (which no agent can produce), votes nowhere and is noise with no link to
// blame.
func TestEmptyPathReportVotesNowhere(t *testing.T) {
	long := make([]topology.LinkID, ecmp.MaxPathLinks+1)
	for i := range long {
		long[i] = topology.LinkID(i)
	}
	for _, r := range []Report{{FlowID: 1, Retx: 3}, {FlowID: 2, Retx: 1, Path: long}} {
		tl := NewTally()
		tl.AddAll([]Report{r})
		if len(tl.links) != 0 {
			t.Fatalf("a report with %d path links voted on %d links", len(r.Path), len(tl.links))
		}
		ranking, detected, verdicts := Localize([]Report{r}, DetectOptions{ThresholdFrac: 0.01})
		if want := (Verdict{FlowID: r.FlowID, Link: topology.NoLink, Noise: true}); len(ranking) != 0 || len(detected) != 0 || verdicts[0] != want {
			t.Fatalf("a report with %d path links: ranking %v, detected %v, verdict %+v", len(r.Path), ranking, detected, verdicts[0])
		}
	}
}

// Every path length up to ecmp.MaxPathLinks divides voteUnits, so every
// vote a report casts is a whole number of units.
func TestVoteUnitsDivideEveryPathLength(t *testing.T) {
	for h := 1; h <= ecmp.MaxPathLinks; h++ {
		if voteUnits%h != 0 {
			t.Fatalf("a %d-link path's vote is %d/%d units", h, voteUnits, h)
		}
	}
}

// Equal votes are equal however they were cast: link 3's 1/3 + 1/4 + 1/6,
// which summed as floats in that order is 0.7499999999999999, ties link 8's
// three quarters, and the lower LinkID ranks first and is blamed first. So
// it does in a fresh call and in a stream's patched one, where link 3's
// sixth arrives in the patch.
func TestEqualVotesTieToLowerLink(t *testing.T) {
	reports := []Report{
		report(1, 1, 3, 100, 101),
		report(2, 1, 3, 102, 103, 104),
		report(3, 1, 3, 105, 106, 107, 108, 109),
		report(4, 1, 8, 110, 111, 112),
		report(5, 1, 8, 113, 114, 115),
		report(6, 1, 8, 116, 117, 118),
	}
	for i := range 60 { // a sixth of a vote on each of 360 other links
		l := topology.LinkID(1000 + 6*i)
		reports = append(reports, report(int64(10+i), 1, l, l+1, l+2, l+3, l+4, l+5))
	}
	check := func(what string, ranking []LinkVotes, detected []topology.LinkID) {
		t.Helper()
		if len(ranking) < 2 || ranking[0] != (LinkVotes{3, 0.75}) || ranking[1] != (LinkVotes{8, 0.75}) {
			t.Fatalf("%s: ranking starts %v, want links 3 and 8 at 0.75", what, ranking[:min(len(ranking), 2)])
		}
		if !slices.Equal(detected, []topology.LinkID{3, 8}) {
			t.Fatalf("%s: detected %v, want [3 8]", what, detected)
		}
	}
	ranking, detected, _ := Localize(reports, DetectOptions{ThresholdFrac: 0.01})
	check("fresh", ranking, detected)
	opts := Streaming(DetectOptions{ThresholdFrac: 0.01})
	if localizeStream(slices.Delete(slices.Clone(reports), 2, 3), opts) {
		t.Fatal("a stream's first call patched")
	}
	ranking, detected, _ = Localize(reports, opts)
	c := <-opts.stream
	opts.stream <- c
	if !c.patched {
		t.Fatal("adding one report to 65 did not patch")
	}
	check("patched", ranking, detected)
}

func TestFindProblemLinksSingleFailure(t *testing.T) {
	// 20 flows through bad link 100 on otherwise distinct paths, plus one
	// lone noise flow. The bad link must rank first, and with the observed
	// adjuster none of the co-path links may be blamed.
	var reports []Report
	id := int64(0)
	for i := 0; i < 20; i++ {
		id++
		reports = append(reports, report(id, 1, 100, topology.LinkID(200+i), topology.LinkID(300+i), topology.LinkID(400+i)))
	}
	reports = append(reports, report(id+1, 1, 500, 501, 502, 503))
	tl := NewTally()
	tl.AddAll(reports)

	raw := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.01, Adjuster: NoAdjuster{}})
	if len(raw) == 0 || raw[0] != 100 {
		t.Fatalf("without adjustment detected = %v, want 100 first", raw)
	}
	adj := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.01, Adjuster: NewObservedAdjuster(reports)})
	if len(adj) == 0 || adj[0] != 100 {
		t.Fatalf("with adjustment detected = %v, want 100 first", adj)
	}
	for _, l := range adj {
		if l >= 200 && l < 500 {
			t.Fatalf("co-path link %d blamed despite adjustment: %v", l, adj)
		}
	}
}

func TestObservedAdjusterSuppressesSpill(t *testing.T) {
	// All failed flows share both links A and B (A truly bad). Without
	// adjustment, B ties A and gets blamed too; the observed adjuster
	// removes B's spill-over votes after blaming A.
	var reports []Report
	for i := 0; i < 30; i++ {
		reports = append(reports, report(int64(i), 1, 1, 2, topology.LinkID(100+i), topology.LinkID(200+i)))
	}
	tl := NewTally()
	tl.AddAll(reports)
	noAdj := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.01, Adjuster: NoAdjuster{}})
	adj := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.01, Adjuster: NewObservedAdjuster(reports)})
	if len(adj) != 1 || adj[0] != 1 {
		t.Fatalf("with adjustment detected %v, want exactly [1]", adj)
	}
	if len(noAdj) < 2 {
		t.Fatalf("without adjustment expected spill-over detections, got %v", noAdj)
	}
}

func TestFindProblemLinksThreshold(t *testing.T) {
	var reports []Report
	for i := 0; i < 100; i++ {
		reports = append(reports, report(int64(i), 1, topology.LinkID(i), topology.LinkID(1000+i)))
	}
	tl := NewTally()
	tl.AddAll(reports)
	// Perfectly flat tally at 1% each: threshold 5% detects nothing.
	b := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.05, Adjuster: NoAdjuster{}})
	if len(b) != 0 {
		t.Fatalf("flat tally detected %v", b)
	}
}

func TestFindProblemLinksEmpty(t *testing.T) {
	if b := FindProblemLinks(NewTally(), DetectOptions{ThresholdFrac: 0.01}); b != nil {
		t.Fatalf("empty tally detected %v", b)
	}
}

// Votes must never go negative under adjustment.
func TestAdjustmentClampsAtZero(t *testing.T) {
	var reports []Report
	for i := 0; i < 10; i++ {
		reports = append(reports, report(int64(i), 1, 1, 2))
	}
	tl := NewTally()
	tl.AddAll(reports)
	adj := NewObservedAdjuster(reports)
	b := FindProblemLinks(tl, DetectOptions{ThresholdFrac: 0.01, Adjuster: adj})
	if len(b) != 1 {
		t.Fatalf("detected %v, want single link", b)
	}
}

func TestClassifyFlows(t *testing.T) {
	tl := NewTally()
	rs := []Report{
		report(1, 1, 10, 11, 12),
		report(2, 1, 10, 13, 14),
		report(3, 1, 20, 21, 22),
	}
	tl.AddAll(rs)
	verdicts := ClassifyFlows(tl, []topology.LinkID{10}, rs)
	if len(verdicts) != 3 {
		t.Fatalf("%d verdicts", len(verdicts))
	}
	if verdicts[0].Noise || verdicts[0].Link != 10 {
		t.Fatalf("flow 1 verdict: %+v", verdicts[0])
	}
	if verdicts[1].Noise || verdicts[1].Link != 10 {
		t.Fatalf("flow 2 verdict: %+v", verdicts[1])
	}
	if !verdicts[2].Noise {
		t.Fatalf("flow 3 should be noise: %+v", verdicts[2])
	}
	if verdicts[2].Link == topology.NoLink {
		t.Fatal("noise verdict should still carry a best guess")
	}
}

func TestClassifyPicksHighestVotedDetected(t *testing.T) {
	tl := NewTally()
	rs := []Report{
		report(1, 1, 10, 11),
		report(2, 1, 10, 12),
		report(3, 1, 11, 13),
		report(4, 1, 10, 11), // path with both detected links
	}
	tl.AddAll(rs)
	// 10 has 1.5 votes, 11 has 1.0.
	verdicts := ClassifyFlows(tl, []topology.LinkID{10, 11}, rs)
	if verdicts[3].Link != 10 {
		t.Fatalf("flow 4 blamed %d, want the higher-voted 10", verdicts[3].Link)
	}
}
