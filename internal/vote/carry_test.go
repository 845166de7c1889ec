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

	detected := findProblemLinks(fresh.links, fresh.votes, order, fresh, DetectOptions{ThresholdFrac: 0.01, Adjuster: &ObservedAdjuster{ix: fresh}})
	if flip && len(fresh.links) > 0 {
		detected = append(detected, fresh.links[len(reports)%len(fresh.links)])
	}
	if got, want := c.ranking(), linkVotes(fresh.links, fresh.votes, order); !slices.Equal(got, want) {
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
// chunk. Small edits within one chunk take the patch; disjoint epochs, and
// any call with more than one chunk's reports on either side, take the
// fresh build.
func TestCarryMatchesFreshBuild(t *testing.T) {
	for _, n := range []int{1, 40, 700, 2040, 2100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			g := &carrySeq{rng: stats.NewRNG(uint64(n))}
			c := &carry{ix: new(index), spare: new(index)}
			last := 0 // the reports of the call before
			load := func(reports []Report, wantPatched bool, what string) {
				t.Helper()
				wantPatched = wantPatched && max(last, len(reports)) <= maxCarried
				if got := c.load(reports); got != wantPatched && n >= 700 {
					t.Fatalf("%s (%d reports after %d): patched = %v, want %v", what, len(reports), last, got, wantPatched)
				}
				requireCarryMatchesFresh(t, c, reports, len(reports)%3 == 0)
				c.ix.reports, last = nil, len(reports)
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
				// call: past it every call builds fresh, and the first
				// within it again too.
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
				c.ix.reports, last = nil, len(cur)
			}
			cur = g.epoch(n)
			load(cur, false, "disjoint epoch")
			shuffled := slices.Clone(cur)
			for i := len(shuffled) - 1; i > 0; i-- {
				j := g.rng.Intn(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			c.load(shuffled) // out of FlowID order: either path
			requireCarryMatchesFresh(t, c, shuffled, false)
			c.ix.reports = nil
			load(shuffled, n > 0, "shuffled again")
			load(cur[:n/2], false, "the first half")
			load(nil, false, "an empty epoch")
			load(cur, false, "after the empty epoch")
		})
	}
}

// localizeStream runs Localize with a stream's options and reports whether
// the call patched.
func localizeStream(reports []Report, opts DetectOptions) bool {
	Localize(reports, opts)
	c := <-opts.stream
	opts.stream <- c
	return c.patched
}

// Two streams fed alternately, each its own sequence of related epochs,
// both patch from their second call on: neither evicts the other.
func TestStreamsDoNotEvictEachOther(t *testing.T) {
	g := &carrySeq{rng: stats.NewRNG(11)}
	a, b := g.epoch(600), g.epoch(600)
	sa, sb := Streaming(DetectOptions{}), Streaming(DetectOptions{})
	for call := range 10 {
		if pa, pb := localizeStream(a, sa), localizeStream(b, sb); pa != (call > 0) || pb != (call > 0) {
			t.Fatalf("call %d: stream a patched %v, stream b %v", call, pa, pb)
		}
		a, b = g.edit(a, 0.004, 0.004, 0.004), g.edit(b, 0.004, 0.004, 0.004)
	}
}

// A stream patches up to one summation chunk of reports, 2,048, and builds
// fresh past it, on the call with more and on the one after.
func TestStreamCarriesOneChunk(t *testing.T) {
	g := &carrySeq{rng: stats.NewRNG(13)}
	full := g.epoch(2049)
	opts := Streaming(DetectOptions{})
	for _, step := range []struct {
		n       int
		patched bool
	}{{2048, false}, {2048, true}, {2049, false}, {2048, false}, {2048, true}} {
		if got := localizeStream(full[:step.n], opts); got != step.patched {
			t.Fatalf("%d reports: patched = %v, want %v", step.n, got, step.patched)
		}
	}
}

// Calls without a stream build fresh on pooled carries that record
// nothing: a hundred of them on unrelated reports between two calls of a
// stream leave the stream patching, and leave no pooled carry holding a
// call.
func TestStatelessCallsLeaveStreamsAlone(t *testing.T) {
	for range cap(localFree) {
		localFree.get()
	}
	g := &carrySeq{rng: stats.NewRNG(17)}
	cur := g.epoch(600)
	opts := Streaming(DetectOptions{ThresholdFrac: 0.01})
	localizeStream(cur, opts)
	for range 100 {
		Localize(g.epoch(600), DetectOptions{ThresholdFrac: 0.01})
	}
	if !localizeStream(g.edit(cur, 0.004, 0.004, 0.004), opts) {
		t.Fatal("the stream built fresh after stateless calls")
	}
	local := localFree.get()
	if !local.local || local.valid || len(local.flow) != 0 || local.ix.reports != nil {
		t.Fatalf("stateless calls left a pooled carry that is not local (%v), recorded the call (valid %v, %d flows) or kept its reports",
			local.local, local.valid, len(local.flow))
	}
	localFree.put(local)
}

// A call that finds its stream's carry taken runs the same sequence on a
// local carry: its outputs are the stream's, fresh or patched, and the
// local carry records nothing and keeps none of the call's reports.
func TestLocalizeOnTakenCarry(t *testing.T) {
	g := &carrySeq{rng: stats.NewRNG(43)}
	cur := g.epoch(600)
	opts := Streaming(DetectOptions{ThresholdFrac: 0.01})
	for call := range 4 {
		ranking, detected, verdicts := Localize(cur, opts)
		held := <-opts.stream
		lranking, ldetected, lverdicts := Localize(cur, opts)
		opts.stream <- held
		if !slices.Equal(lranking, ranking) || !slices.Equal(ldetected, detected) || !slices.Equal(lverdicts, verdicts) {
			t.Fatalf("call %d: a local carry's outputs differ from the stream's", call)
		}
		if held.patched != (call > 0) {
			t.Fatalf("call %d: the stream patched = %v", call, held.patched)
		}
		local := localFree.get()
		if !local.local || local.valid || len(local.flow) != 0 || local.ix.reports != nil {
			t.Fatalf("call %d: the local carry recorded the call (local %v, valid %v, %d flows) or kept its reports",
				call, local.local, local.valid, len(local.flow))
		}
		localFree.put(local)
		cur = g.edit(cur, 0.004, 0.004, 0.004)
	}
}
