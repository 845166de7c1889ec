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
// fresh build of the same reports. A recorded index numbers its slots and
// reports by handle, so the two are compared through the carry's maps:
// byLink's slots with reports must be the fresh build's links in order,
// with their units and votes, and no other slot may hold a vote; each row,
// its handles read as report positions through byPos, must hold the fresh
// row's reports, in any order but with a report's repeated entries next to
// each other; each report's slots, read as links, must be the fresh
// report's; the ranking order, read as links, must be the fresh one. That
// is the fresh build up to renaming, which is all an output reads. Then it
// issues the verdicts both ways, for Algorithm 1's B with one more link
// thrown in when flip is set, so that B's changes from call to call are not
// all Algorithm 1's.
func requireCarryMatchesFresh(t *testing.T, c *carry, reports []Report, flip bool) {
	t.Helper()
	fresh := new(index)
	fresh.build(reports)
	var rs rankScratch
	order := rs.rank(fresh.units)
	ix := c.ix
	byLink, byPos := ix.byLink, c.byPos
	if c.local { // not recorded: the reports are the fresh build's
		byPos = make([]int32, len(reports))
		for i := range byPos {
			byPos[i] = int32(i)
		}
	}
	pos := make(map[int32]int32, len(byPos)) // handle → position
	for i, h := range byPos {
		pos[h] = int32(i)
	}
	if len(byPos) != len(reports) || len(pos) != len(reports) {
		t.Fatalf("%d report handles (%d distinct) for %d reports", len(byPos), len(pos), len(reports))
	}
	live := make([]bool, len(ix.links))
	k := 0
	for _, s := range byLink {
		if ix.lstart[s] == ix.lend[s] {
			continue // a slot whose reports all went, kept for its link
		}
		if live[s] = true; k == len(fresh.links) {
			t.Fatalf("more slots with reports than the fresh build's %d", len(fresh.links))
		}
		if ix.links[s] != fresh.links[k] {
			t.Fatalf("link %d in LinkID order is %d, fresh build %d", k, ix.links[s], fresh.links[k])
		}
		if ix.units[s] != fresh.units[k] || math.Float64bits(ix.votes[s]) != math.Float64bits(fresh.votes[k]) {
			t.Fatalf("link %d: %d units, vote %v; fresh build %d, %v", fresh.links[k], ix.units[s], ix.votes[s], fresh.units[k], fresh.votes[k])
		}
		var row []int32
		for i, h := range ix.lrep[ix.lstart[s]:ix.lend[s]] {
			if i > 0 && pos[h] != row[i-1] && slices.Contains(row, pos[h]) {
				t.Fatalf("link %d's row %v: report %d's entries are not next to each other", fresh.links[k], row, pos[h])
			}
			row = append(row, pos[h])
		}
		slices.Sort(row)
		if want := fresh.lrep[fresh.lstart[k]:fresh.lstart[k+1]]; !slices.Equal(row, want) {
			t.Fatalf("link %d's reports: %v, fresh build %v", fresh.links[k], row, want)
		}
		k++
	}
	if k != len(fresh.links) {
		t.Fatalf("slots: %d links with reports, fresh build %d", k, len(fresh.links))
	}
	for s, ok := range live {
		if !ok && (ix.units[s] != 0 || ix.votes[s] != 0) {
			t.Fatalf("slot %d has no reports but holds %d units, vote %v", s, ix.units[s], ix.votes[s])
		}
	}
	linksOf := func(x *index, slots []int32) []topology.LinkID {
		out := []topology.LinkID{}
		for _, s := range slots {
			out = append(out, x.links[s])
		}
		return out
	}
	for i, h := range byPos {
		got, want := linksOf(ix, ix.eslot[ix.estart[h]:ix.eend[h]]), linksOf(fresh, fresh.eslot[fresh.estart[i]:fresh.estart[i+1]])
		if !slices.Equal(got, want) {
			t.Fatalf("report %d's links: %v, fresh build %v", i, got, want)
		}
	}
	if got, want := linksOf(ix, c.order), linksOf(fresh, order); !slices.Equal(got, want) {
		t.Fatalf("ranking order differs from a fresh build's:\n got %v\nwant %v", got[:min(len(got), 24)], want[:min(len(want), 24)])
	}
	if len(ix.shared) != len(ix.links) || slices.ContainsFunc(ix.shared, func(n int32) bool { return n != 0 }) || len(ix.touched) != 0 {
		t.Fatal("the adjuster's scratch is not clean")
	}

	detected := findProblemLinks(fresh.links, fresh.units, fresh.votes, order, fresh, DetectOptions{ThresholdFrac: 0.01, Adjuster: &ObservedAdjuster{ix: fresh}})
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
// a few hundred links (span, when set, widens that) and now and then a far
// one, and the edge cases the index must keep: empty paths, NoLink
// placeholders, a link repeated within a path.
type carrySeq struct {
	rng  *stats.RNG
	ids  int64
	span int
}

func (g *carrySeq) link() topology.LinkID { return topology.LinkID(g.rng.Intn(max(g.span, 300))) }

func (g *carrySeq) path() []topology.LinkID {
	switch g.rng.Intn(24) {
	case 0:
		return nil
	case 1:
		return []topology.LinkID{topology.NoLink, g.link()}
	case 2:
		l := g.link()
		return []topology.LinkID{l, g.link(), l}
	case 3:
		return []topology.LinkID{1<<30 + topology.LinkID(g.rng.Intn(3)), g.link()}
	}
	p := make([]topology.LinkID, 2+g.rng.Intn(5))
	for i := range p {
		p[i] = g.link()
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
// reports), the same reports twice, growth and shrinking a few reports a
// call, disjoint epochs and epochs out of FlowID order. Small edits take
// the patch, at any size, unless the arena bound says otherwise; disjoint
// epochs take the fresh build.
func TestCarryMatchesFreshBuild(t *testing.T) {
	for _, n := range []int{1, 40, 700, 2040, 2100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			g := &carrySeq{rng: stats.NewRNG(uint64(n))}
			c := &carry{ix: new(index)}
			last := 0 // the reports of the call before
			load := func(reports []Report, wantPatched bool, what string) {
				t.Helper()
				// Rows rewritten at the end of the arrays may outgrow the
				// arena bound, which sends a call to the fresh build.
				wantPatched = wantPatched && c.size() <= 4*c.arena
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
				// Grow and shrink a few reports a call.
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

// A stream carries across what was once its limit, one 2,048-report
// summation chunk: the tally counts whole units, so every call after the
// first patches, on either side of that bound and across it both ways,
// so long as few enough reports change (carryMaxChanged).
func TestStreamCarriesOneChunk(t *testing.T) {
	g := &carrySeq{rng: stats.NewRNG(13)}
	full := g.epoch(2176)
	opts := Streaming(DetectOptions{})
	for i, n := range []int{2048, 2048, 2049, 2048, 2176, 2048, 2048} {
		if got := localizeStream(full[:n], opts); got != (i > 0) {
			t.Fatalf("call %d, %d reports: patched = %v, want %v", i, n, got, i > 0)
		}
	}
}

// A stream's carry is in its slot only while no call has it: releasing it
// twice panics, where a blocking send would hang.
func TestReleaseTwicePanics(t *testing.T) {
	opts := Streaming(DetectOptions{})
	c := takeCarry(opts.stream)
	c.release(opts.stream)
	defer func() {
		if recover() == nil {
			t.Fatal("a second release into a full slot returned")
		}
	}()
	c.release(opts.stream)
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

// A patched call's work follows the reports that changed, not the epoch.
// On streams of 500, 2,000 and 16,384 reports over 50,000 links, where a
// link carries about one report (16k reports: about two), each call
// changes one report — its path edited, the report removed, or one added —
// and may write (outside bulk copies), touch and recompute at most 4× that
// report's path entries plus the reports on its links, before and after.
// A patch that re-derived every row would cost the epoch's thousands of
// entries. Every call patches, the same epoch again included, and
// allocates no more than a fresh build does.
func TestPatchCostFollowsDelta(t *testing.T) {
	for _, n := range []int{500, 2000, 16384} {
		g := &carrySeq{rng: stats.NewRNG(uint64(n) + 5), span: 50000}
		cur := g.epoch(n)
		opts := Streaming(DetectOptions{ThresholdFrac: 0.01})
		localizeStream(cur, opts)
		onLinks := func(reports []Report, path []topology.LinkID) int {
			k := len(path)
			for _, r := range reports {
				for _, l := range path {
					if l >= 0 && slices.Contains(r.Path, l) {
						k++
					}
				}
			}
			return k
		}
		worst := 0.0
		for step := range 60 {
			next := slices.Clone(cur)
			i := g.rng.Intn(len(next))
			var paths [][]topology.LinkID
			switch step % 4 {
			case 0:
				paths = [][]topology.LinkID{next[i].Path}
				next = slices.Delete(next, i, i+1)
			case 1:
				r := Report{FlowID: next[i].FlowID + 1, Path: g.path()}
				if i+1 < len(next) && next[i+1].FlowID == r.FlowID {
					continue
				}
				paths, next = [][]topology.LinkID{r.Path}, slices.Insert(next, i+1, r)
			case 2:
				paths = [][]topology.LinkID{next[i].Path, g.path()}
				next[i].Path = paths[1]
			}
			if !localizeStream(next, opts) {
				t.Fatalf("n=%d, call %d: one changed report did not patch", n, step)
			}
			budget := 1
			for _, p := range paths {
				budget += onLinks(cur, p) + onLinks(next, p)
			}
			c := <-opts.stream
			opts.stream <- c
			if c.work > 4*budget {
				t.Fatalf("n=%d, call %d: the patch cost %d, over 4× the %d path entries and reports on the changed links", n, step, c.work, budget)
			}
			worst = max(worst, float64(c.work)/float64(budget))
			cur = next
		}
		t.Logf("n=%d: worst cost %.2f× the changed path entries and reports on their links", n, worst)
		// And a patch allocates no more than a fresh build.
		patched := testing.AllocsPerRun(20, func() { Localize(cur, opts) })
		fresh := testing.AllocsPerRun(20, func() { Localize(cur, DetectOptions{ThresholdFrac: 0.01}) })
		if !localizeStream(cur, opts) || patched > fresh {
			t.Fatalf("n=%d: a patch allocates %v times per call, a fresh build %v", n, patched, fresh)
		}
	}
}
