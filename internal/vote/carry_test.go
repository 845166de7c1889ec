package vote

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// requireCarryMatchesFresh holds c's index and ranking, after c.load, to a
// fresh build of the same reports: every array an output reads, the votes
// bit for bit. Then it issues the verdicts both ways, for Algorithm 1's B
// with one more link thrown in when flip is set, so that B's changes from
// call to call are not all Algorithm 1's.
func requireCarryMatchesFresh(t *testing.T, c *carry, reports []Report, flip bool) {
	t.Helper()
	fresh := new(index)
	fresh.build(reports)
	var rs rankScratch
	order := rs.rank(fresh.votes)
	ix := c.ix
	same := func(name string, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s differs from a fresh build:\n got %v\nwant %v", name, got[:min(len(got), 24)], want[:min(len(want), 24)])
		}
	}
	if !slices.Equal(ix.links, fresh.links) {
		t.Fatalf("slots: %d links, fresh build %d", len(ix.links), len(fresh.links))
	}
	for s := range fresh.votes {
		if math.Float64bits(ix.votes[s]) != math.Float64bits(fresh.votes[s]) {
			t.Fatalf("slot %d (link %d): vote %v, fresh build %v", s, ix.links[s], ix.votes[s], fresh.votes[s])
		}
	}
	same("lstart", ix.lstart, fresh.lstart)
	same("lrep", ix.lrep, fresh.lrep)
	same("estart", ix.estart, fresh.estart)
	same("eslot", ix.eslot, fresh.eslot)
	same("ranking order", c.order, order)
	if len(ix.shared) != len(ix.links) || slices.ContainsFunc(ix.shared, func(n int32) bool { return n != 0 }) || len(ix.touched) != 0 {
		t.Fatal("the adjuster's scratch is not clean")
	}

	tally := NewTally()
	tally.absorb(fresh)
	detected := findProblemLinks(tally, order, fresh, DetectOptions{ThresholdFrac: 0.01, Adjuster: &ObservedAdjuster{ix: fresh}})
	if flip && len(fresh.links) > 0 {
		detected = append(detected, fresh.links[len(reports)%len(fresh.links)])
	}
	if got, want := c.ranking(tally), tally.linkVotes(order); !slices.Equal(got, want) {
		t.Fatalf("ranking differs from a fresh build's:\n got %v\nwant %v", got[:min(len(got), 8)], want[:min(len(want), 8)])
	}
	want := fresh.classify(fresh.votes, detected)
	if got := c.classify(detected); !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("verdict %d: %+v, fresh build %+v", i, got[i], want[i])
			}
		}
	}
}

// carrySeq makes report sequences: FlowIDs ascending with gaps, paths over
// a few hundred links (and now and then a far one), and the edge cases the
// index must keep: empty paths, NoLink placeholders, a link repeated within
// a path.
type carrySeq struct {
	rng *stats.RNG
	ids int64
}

func (g *carrySeq) path() []topology.LinkID {
	switch g.rng.Intn(24) {
	case 0:
		return nil
	case 1:
		return []topology.LinkID{topology.NoLink, topology.LinkID(g.rng.Intn(300))}
	case 2:
		l := topology.LinkID(g.rng.Intn(300))
		return []topology.LinkID{l, topology.LinkID(g.rng.Intn(300)), l}
	case 3:
		return []topology.LinkID{1<<30 + topology.LinkID(g.rng.Intn(3)), topology.LinkID(g.rng.Intn(300))}
	}
	p := make([]topology.LinkID, 2+g.rng.Intn(5))
	for i := range p {
		p[i] = topology.LinkID(g.rng.Intn(300))
	}
	return p
}

func (g *carrySeq) epoch(n int) []Report {
	out := make([]Report, n)
	for i := range out {
		g.ids += 1 + int64(g.rng.Intn(8))
		out[i] = Report{FlowID: g.ids, Path: g.path()}
	}
	return out
}

// edit returns the next epoch: prev with each report removed or its path
// edited at the given rates, and new reports inserted, FlowIDs in order,
// at the add rate.
func (g *carrySeq) edit(prev []Report, remove, change, add float64) []Report {
	out := make([]Report, 0, len(prev)+8)
	last := int64(0)
	for _, r := range prev {
		if g.rng.Float64() < add && r.FlowID > last+1 {
			out = append(out, Report{FlowID: last + 1, Path: g.path()})
		}
		last = r.FlowID
		switch x := g.rng.Float64(); {
		case x < remove:
			continue
		case x < remove+change:
			r.Path = g.path()
		}
		out = append(out, r)
	}
	for g.rng.Float64() < add*float64(len(prev)+1) {
		g.ids += 1 + int64(g.rng.Intn(8))
		out = append(out, Report{FlowID: g.ids, Path: g.path()})
		add /= 2
	}
	return out
}

// The carried index and ranking are a fresh build's, bit for bit, after
// every call of every sequence: small edits (removed, added and edited
// reports), the same reports twice, disjoint epochs, epochs out of FlowID
// order, and report counts on both sides of the 2,048-report summation
// chunk. Small edits take the patch, disjoint epochs the fresh build.
func TestCarryMatchesFreshBuild(t *testing.T) {
	for _, n := range []int{1, 40, 700, 2040, 2100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			g := &carrySeq{rng: stats.NewRNG(uint64(n))}
			c := &carry{ix: new(index), spare: new(index)}
			load := func(reports []Report, wantPatched bool, what string) {
				t.Helper()
				if got := c.load(reports); got != wantPatched && n >= 700 {
					t.Fatalf("%s: patched = %v, want %v", what, got, wantPatched)
				}
				requireCarryMatchesFresh(t, c, reports, len(reports)%3 == 0)
				c.ix.reports = nil
			}
			cur := g.epoch(n)
			load(cur, false, "first call")
			load(cur, true, "the same reports again")
			for step := 0; step < 30; step++ {
				cur = g.edit(cur, 0.004, 0.004, 0.004)
				load(cur, true, fmt.Sprintf("small edit %d", step))
			}
			if n >= 2040 {
				// Grow across the chunk boundary and back, a few reports a
				// call, so the patch carries rows whose positions change
				// chunk.
				for step := 0; step < 6; step++ {
					cur = g.edit(cur, 0, 0, 0.02)
					load(cur, true, fmt.Sprintf("growth %d", step))
				}
				for step := 0; step < 6; step++ {
					cur = g.edit(cur, 0.02, 0, 0)
					load(cur, true, fmt.Sprintf("shrink %d", step))
				}
			}
			for step := 0; step < 8; step++ {
				cur = g.edit(cur, 0.2, 0.2, 0.2)
				c.load(cur) // either path; the arrays must match
				requireCarryMatchesFresh(t, c, cur, step%2 == 0)
			}
			cur = g.epoch(n)
			load(cur, false, "disjoint epoch")
			shuffled := slices.Clone(cur)
			for i := len(shuffled) - 1; i > 0; i-- {
				j := g.rng.Intn(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			for c.load(shuffled); !c.keep; c.load(shuffled) { // failed alignments back off
				requireCarryMatchesFresh(t, c, shuffled, false)
			}
			requireCarryMatchesFresh(t, c, shuffled, false)
			load(shuffled, n > 0, "shuffled again")
			load(cur[:n/2], false, "the first half")
			load(nil, false, "an empty epoch")
			load(cur, false, "after the empty epoch")
		})
	}
}

// Epochs that share nothing make the carry back off: after each failed
// alignment in a row, twice as many fresh calls record nothing, up to
// maxBackoff. A stream of related epochs then patches again within
// maxBackoff + 2 calls.
func TestCarryBacksOffOnUnrelatedEpochs(t *testing.T) {
	g := &carrySeq{rng: stats.NewRNG(7)}
	a, b := g.epoch(500), g.epoch(500)
	c := &carry{ix: new(index), spare: new(index)}
	recorded := 0
	for i := range 400 {
		if c.load([][]Report{a, b}[i%2]) {
			t.Fatalf("call %d patched across unrelated epochs", i)
		}
		if c.keep {
			recorded++
		}
		finishCall(c)
	}
	if recorded > 16 {
		t.Fatalf("%d of 400 calls over unrelated epochs recorded for the next", recorded)
	}
	cur := a
	for i := 0; ; i++ {
		if i > maxBackoff+2 {
			t.Fatalf("no patch within %d calls of related epochs", i)
		}
		if c.load(cur) {
			break
		}
		finishCall(c)
		cur = g.edit(cur, 0.002, 0.002, 0.002)
	}
}

// finishCall hands out a loaded call's ranking and verdicts, as Localize
// does, so the carry records them.
func finishCall(c *carry) {
	t := NewTally()
	t.absorb(c.ix)
	c.ranking(t)
	c.classify(nil)
	c.ix.reports = nil
}
