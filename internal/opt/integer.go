package opt

import (
	"vigil/internal/stats"
	"vigil/internal/topology"
)

// IntegerSolution assigns a drop count to each blamed link — the solution
// vector p of program (4). Non-zero entries are the predicted failed links;
// magnitudes give the ranking.
type IntegerSolution struct {
	Drops map[topology.LinkID]int
}

// FailedLinks applies the integer program's extra information — assigned
// drop counts — to the detection decision: links explaining only a lone
// drop are noise by the paper's own definition (§6), so the predicted
// failed set is the links with at least minDrops assigned. The paper's
// integer-optimization curves correspond to minDrops = 2.
func (s IntegerSolution) FailedLinks(minDrops int) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(s.Drops))
	for l, d := range s.Drops {
		if d >= minDrops {
			out = append(out, l)
		}
	}
	sortLinks(out)
	return out
}

// BlameOnPath returns the path link with the highest assigned drop count,
// the integer program's per-flow verdict.
func (s IntegerSolution) BlameOnPath(path []topology.LinkID) (topology.LinkID, bool) {
	best := topology.NoLink
	bestD := 0
	for _, l := range path {
		if d := s.Drops[l]; d > bestD {
			best, bestD = l, d
		}
	}
	return best, best != topology.NoLink
}

// SolveInteger approximates program (4): cover every flow's retransmission
// count with per-link drop assignments, preferring few links (min ||p||0),
// then prune and rebalance so the supply approaches ||c||1.
//
// Greedy phase: repeatedly pick the link with the largest total unmet
// demand across its flows and give it the largest single unmet demand among
// them (enough to fully satisfy at least one flow). Pruning phase: drop any
// link whose removal leaves all flows covered; rebalance trims each link's
// assignment to the minimum that keeps its flows satisfied, pushing ||p||1
// toward ||c||1 as the equality constraint demands.
func (in *Instance) SolveInteger(rng *stats.RNG) IntegerSolution {
	supply := make([]int, len(in.Links))
	unmet := make([]int, len(in.paths))
	remaining := 0
	for i, d := range in.demand {
		unmet[i] = d
		remaining += d
	}
	met := func(fi int) int {
		got := 0
		for _, li := range in.paths[fi] {
			got += supply[li]
		}
		return got
	}
	for remaining > 0 {
		best, bestScore, bestMax := -1, 0, 0
		for li := range in.Links {
			score, maxU := 0, 0
			for _, fi := range in.byLink[li] {
				u := unmet[fi]
				score += u
				if u > maxU {
					maxU = u
				}
			}
			if score > bestScore {
				best, bestScore, bestMax = li, score, maxU
			}
		}
		if best < 0 {
			break
		}
		supply[best] += bestMax
		for _, fi := range in.byLink[best] {
			if unmet[fi] == 0 {
				continue
			}
			u := in.demand[fi] - met(fi)
			if u < 0 {
				u = 0
			}
			remaining -= unmet[fi] - u
			unmet[fi] = u
		}
	}

	// Prune: remove redundant links in random order (the local search's
	// only stochastic step; a fixed rng keeps runs reproducible).
	order := rng.Perm(len(in.Links))
	for _, li := range order {
		if supply[li] == 0 {
			continue
		}
		old := supply[li]
		supply[li] = 0
		ok := true
		for _, fi := range in.byLink[li] {
			if met(fi) < in.demand[fi] {
				ok = false
				break
			}
		}
		if !ok {
			supply[li] = old
		}
	}
	// Rebalance: shrink each assignment to the binding minimum. Shrinking
	// link li by d reduces a flow's coverage by d times the number of times
	// li appears on its path, so the allowed cut is slack/multiplicity.
	for li := range in.Links {
		if supply[li] == 0 {
			continue
		}
		if len(in.byLink[li]) == 0 {
			supply[li] = 0
			continue
		}
		maxCut := supply[li]
		for _, fi := range in.byLink[li] {
			mult := 0
			for _, pl := range in.paths[fi] {
				if pl == li {
					mult++
				}
			}
			if cut := (met(fi) - in.demand[fi]) / mult; cut < maxCut {
				maxCut = cut
			}
		}
		if maxCut > 0 {
			supply[li] -= maxCut
		}
	}

	sol := IntegerSolution{Drops: make(map[topology.LinkID]int)}
	for li, s := range supply {
		if s > 0 {
			sol.Drops[in.Links[li]] = s
		}
	}
	return sol
}

// Reference oracle: Feasible reports whether assignment p satisfies
// Ap >= c, for tests to check the integer program's answers.
func (in *Instance) Feasible(p map[topology.LinkID]int) bool {
	for fi, path := range in.paths {
		got := 0
		for _, li := range path {
			got += p[in.Links[li]]
		}
		if got < in.demand[fi] {
			return false
		}
	}
	return true
}

// Reference oracle: Covers reports whether the link set covers every
// failed flow (the binary program's constraint), for tests to check the
// set-cover answers.
func (in *Instance) Covers(links []topology.LinkID) bool {
	set := make(map[topology.LinkID]bool, len(links))
	for _, l := range links {
		set[l] = true
	}
	for _, path := range in.paths {
		ok := false
		for _, li := range path {
			if set[in.Links[li]] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
