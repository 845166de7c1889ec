package opt

import (
	"testing"
	"testing/quick"

	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

func rep(id int64, retx int, path ...topology.LinkID) vote.Report {
	return vote.Report{FlowID: id, Path: path, Retx: retx}
}

// The appendix-B example (Figure 15): link 2-4 drops; flows 1-2 and 3-2
// fail, flow 1-3 does not. Set cover must blame exactly the shared link.
func TestBinaryTomographyExample(t *testing.T) {
	reports := []vote.Report{
		rep(1, 1, 12, 24), // flow 1→2 via node 4, using links (1,2)=12,(2,4)=24... encoded as opaque IDs
		rep(2, 1, 34, 24), // flow 3→2
	}
	in := BuildInstance(reports)
	greedy := in.SolveBinaryGreedy()
	if len(greedy) != 1 || greedy[0] != 24 {
		t.Fatalf("greedy = %v, want [24]", greedy)
	}
	exact, ok := in.SolveBinaryExact(0)
	if !ok || len(exact) != 1 || exact[0] != 24 {
		t.Fatalf("exact = %v (ok=%v), want [24]", exact, ok)
	}
}

func TestBinaryExactBeatsGreedyWhenGreedyIsFooled(t *testing.T) {
	// Classic set-cover trap: a wide link covers many flows but two narrow
	// links cover all of them; greedy picks the wide one first and needs 3.
	reports := []vote.Report{
		rep(1, 1, 100, 1),
		rep(2, 1, 100, 1),
		rep(3, 1, 100, 2),
		rep(4, 1, 100, 2),
		rep(5, 1, 1),
		rep(6, 1, 2),
	}
	// Universe: link 100 covers flows 1-4; link 1 covers 1,2,5; link 2
	// covers 3,4,6. Optimal = {1,2}; greedy takes 100 then 1 then 2.
	in := BuildInstance(reports)
	greedy := in.SolveBinaryGreedy()
	exact, ok := in.SolveBinaryExact(0)
	if !ok {
		t.Fatal("exact solver gave up on a tiny instance")
	}
	if len(exact) != 2 {
		t.Fatalf("exact = %v, want 2 links", exact)
	}
	if len(greedy) != 3 {
		t.Fatalf("greedy = %v, want the 3-link trap", greedy)
	}
	if !in.Covers(exact) || !in.Covers(greedy) {
		t.Fatal("solutions do not cover")
	}
}

// Exact is never larger than greedy, and both always cover: checked over
// random instances.
func TestBinarySolversProperty(t *testing.T) {
	rng := stats.NewRNG(42)
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) | rng.Uint64()<<16)
		nFlows := r.IntRange(1, 12)
		nLinks := r.IntRange(2, 10)
		var reports []vote.Report
		for i := 0; i < nFlows; i++ {
			h := r.IntRange(1, 4)
			path := make([]topology.LinkID, h)
			for j := range path {
				path[j] = topology.LinkID(r.Intn(nLinks))
			}
			reports = append(reports, rep(int64(i), r.IntRange(1, 5), path...))
		}
		in := BuildInstance(reports)
		greedy := in.SolveBinaryGreedy()
		exact, ok := in.SolveBinaryExact(0)
		if !ok {
			return false
		}
		return in.Covers(greedy) && in.Covers(exact) && len(exact) <= len(greedy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryExactPlantedFailure(t *testing.T) {
	// k planted bad links, each failing several disjoint flows: the exact
	// cover has size exactly k.
	rng := stats.NewRNG(7)
	for _, k := range []int{1, 2, 3} {
		var reports []vote.Report
		id := int64(0)
		for b := 0; b < k; b++ {
			bad := topology.LinkID(1000 + b)
			for i := 0; i < 5; i++ {
				id++
				reports = append(reports, rep(id, 1,
					bad,
					topology.LinkID(rng.Intn(50)),
					topology.LinkID(50+rng.Intn(50)),
				))
			}
		}
		in := BuildInstance(reports)
		exact, ok := in.SolveBinaryExact(0)
		if !ok {
			t.Fatalf("k=%d: exact gave up", k)
		}
		if len(exact) > k {
			t.Fatalf("k=%d: cover %v larger than planted set", k, exact)
		}
	}
}

func TestIntegerFeasibleAndRanked(t *testing.T) {
	// Bad link 9 drops a lot on two flows; link 5 sees one small flow.
	reports := []vote.Report{
		rep(1, 10, 9, 1, 2),
		rep(2, 8, 9, 3, 4),
		rep(3, 1, 5, 6),
	}
	in := BuildInstance(reports)
	sol := in.SolveInteger(stats.NewRNG(1))
	if !in.Feasible(sol.Drops) {
		t.Fatalf("integer solution infeasible: %v", sol.Drops)
	}
	ranking := sol.Ranking()
	if len(ranking) == 0 || ranking[0].Link != 9 {
		t.Fatalf("ranking = %+v, want link 9 first", ranking)
	}
	blame, ok := sol.BlameOnPath([]topology.LinkID{9, 1, 2})
	if !ok || blame != 9 {
		t.Fatalf("blame = %v/%v", blame, ok)
	}
}

// The integer solution must be feasible (Ap >= c) on random instances, and
// its support must cover all flows.
func TestIntegerFeasibilityProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed)*2654435761 + 1)
		nFlows := r.IntRange(1, 15)
		nLinks := r.IntRange(2, 12)
		var reports []vote.Report
		for i := 0; i < nFlows; i++ {
			h := r.IntRange(1, 5)
			path := make([]topology.LinkID, h)
			for j := range path {
				path[j] = topology.LinkID(r.Intn(nLinks))
			}
			reports = append(reports, rep(int64(i), r.IntRange(1, 20), path...))
		}
		in := BuildInstance(reports)
		sol := in.SolveInteger(rng)
		return in.Feasible(sol.Drops) && in.Covers(sol.Links())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerSupplyApproachesDemand(t *testing.T) {
	// Single bad link shared by all flows: ||p||1 should equal the largest
	// demand (covering all flows through one link), not the sum.
	reports := []vote.Report{
		rep(1, 3, 7, 1),
		rep(2, 5, 7, 2),
		rep(3, 2, 7, 3),
	}
	in := BuildInstance(reports)
	sol := in.SolveInteger(stats.NewRNG(2))
	got := 0
	for _, d := range sol.Drops {
		got += d
	}
	if got != 5 {
		t.Fatalf("||p||1 = %d, want 5", got)
	}
	if len(sol.Links()) != 1 || sol.Links()[0] != 7 {
		t.Fatalf("support = %v, want [7]", sol.Links())
	}
}

func TestEmptyInstance(t *testing.T) {
	in := BuildInstance(nil)
	if got := in.SolveBinaryGreedy(); len(got) != 0 {
		t.Fatalf("greedy on empty = %v", got)
	}
	if got, ok := in.SolveBinaryExact(0); !ok || len(got) != 0 {
		t.Fatalf("exact on empty = %v/%v", got, ok)
	}
	sol := in.SolveInteger(stats.NewRNG(1))
	if len(sol.Drops) != 0 {
		t.Fatalf("integer on empty = %v", sol.Drops)
	}
	if in.Flows() != 0 {
		t.Fatal("empty instance has flows")
	}
}

func TestEmptyPathsIgnored(t *testing.T) {
	in := BuildInstance([]vote.Report{{FlowID: 1, Retx: 2}})
	if in.Flows() != 0 {
		t.Fatal("empty-path report created a constraint")
	}
}

func TestBinaryExactBudgetExhaustion(t *testing.T) {
	// With a 1-node budget the solver must fall back to greedy.
	var reports []vote.Report
	rng := stats.NewRNG(5)
	for i := 0; i < 30; i++ {
		reports = append(reports, rep(int64(i), 1,
			topology.LinkID(rng.Intn(20)), topology.LinkID(20+rng.Intn(20))))
	}
	in := BuildInstance(reports)
	got, ok := in.SolveBinaryExact(1)
	if ok {
		t.Fatal("1-node budget reported an exact solution")
	}
	if !in.Covers(got) {
		t.Fatal("fallback does not cover")
	}
}

func BenchmarkBinaryGreedy(b *testing.B) {
	rng := stats.NewRNG(1)
	var reports []vote.Report
	for i := 0; i < 500; i++ {
		reports = append(reports, rep(int64(i), 1,
			topology.LinkID(rng.Intn(100)),
			topology.LinkID(100+rng.Intn(100)),
			topology.LinkID(200+rng.Intn(100)),
		))
	}
	in := BuildInstance(reports)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SolveBinaryGreedy()
	}
}

func BenchmarkInteger(b *testing.B) {
	rng := stats.NewRNG(1)
	var reports []vote.Report
	for i := 0; i < 200; i++ {
		reports = append(reports, rep(int64(i), rng.IntRange(1, 10),
			topology.LinkID(rng.Intn(50)),
			topology.LinkID(50+rng.Intn(50)),
		))
	}
	in := BuildInstance(reports)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SolveInteger(stats.NewRNG(2))
	}
}
