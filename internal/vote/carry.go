package vote

import (
	"cmp"
	"slices"

	"vigil/internal/prof"
	"vigil/internal/topology"
)

// carryMaxChanged bounds the share of changed reports a carried call
// patches: when more than (old + new reports) / carryMaxChanged reports
// were removed or added, the alignment gives up and the call takes the
// fresh build. A patch costs about as much as the fresh build at a 3 %
// share (DESIGN.md, "Analysis cost model").
const carryMaxChanged = 32

// The analysis stages as CPU-profile labels (prof.Phase).
var (
	phaseAlign    = prof.NewPhase("align")
	phaseIndex    = prof.NewPhase("index")
	phaseRank     = prof.NewPhase("rank")
	phaseDetect   = prof.NewPhase("detect")
	phaseClassify = prof.NewPhase("classify")
)

// carry is the analysis a stream (Streaming) keeps from one call to the
// next: the index and ranking it built last, and the inputs of that index
// some output reads — per report, its position, FlowID and path. One
// producer's consecutive epochs mostly repeat each other's reports, so a
// call aligns its reports against these and patches the index and ranking
// where they changed, in place of a rebuild. The patch reproduces the fresh
// build's arrays exactly (DESIGN.md, "Analysis cost model").
type carry struct {
	ix, spare       *index  // the carried index; the next patch's output buffers
	order, spareOrd []int32 // ix's slots in ranking order; the next patch's
	rs              rankScratch

	// ix's reports: report i is FlowID flow[i] with path
	// path[pstart[i]:pstart[i+1]], NoLink placeholders and repeats
	// included (a report's weight reads its path's length). The spares
	// are the next patch's.
	flow, spareFlow     []int64
	pstart, sparePstart []int32
	path, sparePath     []topology.LinkID

	// The alignment: old report → new position (-1 when removed), the
	// unchanged reports as runs, and the changed ones.
	posmap         []int32
	runs           []run
	removed, added []int32 // old and new positions, ascending

	// Patch scratch, per old slot: removed and added path entries, and
	// where the slot went (-1 when it left, or when its vote changed and
	// rerank places it anew).
	gone, more, slotmap []int32
	touched             []int32 // old slots with gone or more > 0
	entering            []topology.LinkID
	addKeys             []uint64 // per added path entry: link<<32 | new position
	rebuilt, rebuiltOld []int32  // new slots whose rows were rebuilt; their old slots or -1
	moved               []int32  // new slots whose vote is not the carried one

	// The ranking rerank built for this call.
	out []LinkVotes

	// The last call's verdicts and B, and the classify scratch: per new
	// slot, bit 1 for B and bit 2 for the carried B; per report, whether
	// its carried verdict is stale.
	verdicts []Verdict
	detected []topology.LinkID
	inB      []uint8
	stale    []bool
	redo     []int32

	// patched: the last load patched. valid: the carry describes the last
	// call whole, so the next may align against it. local: a pooled carry
	// of a call with no stream of its own, which never records.
	patched, valid, local bool
}

// run is n unchanged reports: old positions old.., new positions new...
type run struct{ old, new, n int32 }

// maxCarried bounds the reports a carry records: within one summation
// chunk a row's vote is the plain sum of its reports' weights in report
// order, which a patch keeps by re-summing touched rows alone, whatever the
// positions shift by. A stream whose epochs outgrow one chunk builds fresh.
const maxCarried = 1 << sumChunkShift

// localFree keeps spent local carries.
var localFree = newFreeList[carry]()

// takeCarry returns stream's carry, or a local one that records nothing
// when there is no stream or another goroutine has its carry.
func takeCarry(stream chan *carry) *carry {
	select {
	case c := <-stream:
		return c
	default:
		c := localFree.get()
		if c.ix == nil {
			c.ix, c.local = new(index), true
		}
		return c
	}
}

// release hands the carry back to its stream, or a local one to the free
// list, holding no reference to this call's reports.
func (c *carry) release(stream chan *carry) {
	c.ix.reports = nil
	if c.local {
		localFree.put(c)
	} else {
		stream <- c
	}
}

// records reports whether the loaded call is recorded for the next: only a
// stream's carry records, and only reports within one summation chunk.
func (c *carry) records() bool {
	return !c.local && len(c.ix.reports) <= maxCarried
}

// load indexes and ranks reports into c.ix and c.order, patching the
// carried index when few reports changed, and reports whether it patched.
// The reports must stay unmodified until c.ix.reports is cleared.
func (c *carry) load(reports []Report) (patched bool) {
	phaseAlign.Begin()
	patched = c.align(reports)
	c.patched, c.valid = patched, false
	phaseAlign.End()
	phaseIndex.Begin()
	if patched {
		c.patch(reports)
	} else {
		c.ix.build(reports)
		if c.records() {
			c.remember(reports)
		}
	}
	phaseIndex.End()
	phaseRank.Begin()
	if patched {
		c.rerank()
	} else {
		order := c.rs.rank(c.ix.votes)
		c.order, c.rs.order = order, c.order
	}
	phaseRank.End()
	return patched
}

// align matches reports against the carried ones with two pointers, in
// FlowID order: a report is unchanged when the carried report it meets has
// its FlowID and path, and removed or added otherwise. Whatever order the
// reports come in, the unchanged ones keep their relative order on both
// sides, which is all the patch needs; reports out of FlowID order only
// match less. It reports false, and the call builds fresh, when nothing is
// carried, the reports outgrow one summation chunk, or more than the
// fallback share changed.
func (c *carry) align(reports []Report) bool {
	n0, n1 := len(c.flow), len(reports)
	if !c.valid || n0 == 0 || n1 == 0 || n1 > maxCarried {
		return false
	}
	limit := (n0 + n1) / carryMaxChanged
	posmap := resize(c.posmap, n0)
	c.posmap = posmap // kept when the alignment fails too, so it is sized once
	runs, removed, added := c.runs[:0], c.removed[:0], c.added[:0]
	i, j := 0, 0
	for i < n0 && j < n1 && len(removed)+len(added) <= limit {
		f, o := reports[j].FlowID, c.flow[i]
		if o == f && slices.Equal(c.path[c.pstart[i]:c.pstart[i+1]], reports[j].Path) {
			posmap[i] = int32(j)
			if k := len(runs) - 1; k >= 0 && runs[k].old+runs[k].n == int32(i) && runs[k].new+runs[k].n == int32(j) {
				runs[k].n++
			} else {
				runs = append(runs, run{int32(i), int32(j), 1})
			}
			i, j = i+1, j+1
			continue
		}
		// An edited report (same FlowID, another path) goes and comes.
		if o <= f {
			posmap[i], removed = -1, append(removed, int32(i))
			i++
		}
		if o >= f {
			added = append(added, int32(j))
			j++
		}
	}
	c.runs, c.removed, c.added = runs, removed, added
	if len(removed)+len(added)+n0-i+n1-j > limit {
		return false
	}
	for ; i < n0; i++ {
		posmap[i], removed = -1, append(removed, int32(i))
	}
	for ; j < n1; j++ {
		added = append(added, int32(j))
	}
	c.removed, c.added = removed, added
	return true
}

// remember records reports as what the next call aligns against.
func (c *carry) remember(reports []Report) {
	flow, pstart, path := resize(c.flow, len(reports)), resize(c.pstart, len(reports)+1), c.path[:0]
	for i := range reports {
		flow[i], pstart[i] = reports[i].FlowID, int32(len(path))
		path = append(path, reports[i].Path...)
	}
	pstart[len(reports)] = int32(len(path))
	c.flow, c.pstart, c.path = flow, pstart, path
}

// patch builds the index of reports into c.spare from the carried index
// and the alignment, and makes it the carried one. Unchanged reports keep
// their relative order, so a run of them, and a run of untouched slots,
// is copied with its positions and slots remapped; only the rows of
// touched links — links on the path of a removed or an added report — are
// rebuilt, and only their votes re-summed.
func (c *carry) patch(reports []Report) {
	old, nx := c.ix, c.spare
	m0 := len(old.links)
	gone, more := c.gone, c.more // zero between calls
	if len(gone) < m0 {
		gone, more = make([]int32, m0), make([]int32, m0)
	}
	touched := c.touched[:0]
	e1, p1 := len(old.eslot), len(c.path) // the new entry and path lengths
	for _, r := range c.removed {
		e1 -= int(old.estart[r+1] - old.estart[r])
		p1 -= int(c.pstart[r+1] - c.pstart[r])
		for _, s := range old.eslot[old.estart[r]:old.estart[r+1]] {
			if gone[s]+more[s] == 0 {
				touched = append(touched, s)
			}
			gone[s]++
		}
	}
	keys, entering := c.addKeys[:0], c.entering[:0]
	for _, j := range c.added {
		p1 += len(reports[j].Path)
		for _, l := range reports[j].Path {
			if l < 0 {
				continue
			}
			keys = append(keys, uint64(l)<<32|uint64(j))
			if s := old.slot(l); s < 0 {
				entering = append(entering, l)
			} else {
				if gone[s]+more[s] == 0 {
					touched = append(touched, int32(s))
				}
				more[s]++
			}
		}
	}
	e1 += len(keys)
	slices.Sort(keys)
	slices.Sort(touched)
	slices.Sort(entering)
	entering = slices.Compact(entering)
	m1 := m0 + len(entering)
	for _, s := range touched {
		if old.lstart[s+1]-old.lstart[s]-gone[s]+more[s] == 0 {
			m1--
		}
	}

	// The slots, ascending: runs of untouched old slots copied, touched
	// ones merged, entering ones built from the added entries alone.
	posmap, slotmap := c.posmap, resize(c.slotmap, m0)
	links, votes := resize(nx.links, m1), resize(nx.votes, m1)
	lstart, lrep := resize(nx.lstart, m1+1), resize(nx.lrep, e1)
	rebuilt, rebuiltOld := c.rebuilt[:0], c.rebuiltOld[:0]
	ns, w := 0, 0            // next new slot and entry
	s, e, k, a := 0, 0, 0, 0 // next old slot, touched slot, entering link, added key
	ins := m0 + 1            // where entering[k] goes among the old slots
	if len(entering) > 0 {
		ins, _ = slices.BinarySearch(old.links, entering[0])
	}
	for {
		next := m0
		if e < len(touched) {
			next = int(touched[e])
		}
		if end := min(next, ins); s < end {
			cnt := end - s
			copy(links[ns:ns+cnt], old.links[s:end])
			copy(votes[ns:ns+cnt], old.votes[s:end])
			off := int32(w) - old.lstart[s]
			dl, sm := lstart[ns:ns+cnt], slotmap[s:end]
			for t, v := range old.lstart[s:end] {
				dl[t], sm[t] = v+off, int32(ns+t)
			}
			src := old.lrep[old.lstart[s]:old.lstart[end]]
			dst := lrep[w : w+len(src)]
			for t, r := range src {
				dst[t] = posmap[r]
			}
			ns, w, s = ns+cnt, w+len(src), end
		}
		switch {
		case ins <= next:
			l := entering[k]
			if k++; k < len(entering) {
				ins, _ = slices.BinarySearch(old.links[s:], entering[k])
				ins += s
			} else {
				ins = m0 + 1
			}
			rebuilt, rebuiltOld = append(rebuilt, int32(ns)), append(rebuiltOld, -1)
			links[ns], lstart[ns] = l, int32(w)
			for ; a < len(keys) && topology.LinkID(keys[a]>>32) == l; a++ {
				lrep[w], w = int32(uint32(keys[a])), w+1
				keys[a] = keys[a]<<32 | uint64(ns)
			}
			ns++
		case next < m0:
			e, s = e+1, next+1
			l, at := old.links[next], w
			for _, r := range old.lrep[old.lstart[next]:old.lstart[next+1]] {
				p := posmap[r]
				if p < 0 {
					continue
				}
				for ; a < len(keys) && topology.LinkID(keys[a]>>32) == l && int32(uint32(keys[a])) < p; a++ {
					lrep[w], w = int32(uint32(keys[a])), w+1
					keys[a] = keys[a]<<32 | uint64(ns)
				}
				lrep[w], w = p, w+1
			}
			for ; a < len(keys) && topology.LinkID(keys[a]>>32) == l; a++ {
				lrep[w], w = int32(uint32(keys[a])), w+1
				keys[a] = keys[a]<<32 | uint64(ns)
			}
			if w == at {
				slotmap[next] = -1 // its last report went
				continue
			}
			slotmap[next] = int32(ns)
			rebuilt, rebuiltOld = append(rebuilt, int32(ns)), append(rebuiltOld, int32(next))
			links[ns], lstart[ns] = l, int32(at)
			ns++
		default:
			lstart[ns] = int32(w)
			goto reports
		}
	}

reports:
	// The reports, in new order: runs of unchanged ones copied with their
	// slots remapped; an added one's slots are its keys, each rewritten
	// above to position<<32 | slot, so sorted they list every added
	// report's slots, ascending, in report order.
	slices.Sort(keys)
	n := len(reports)
	estart, weight, eslot := resize(nx.estart, n+1), resize(nx.weight, n), resize(nx.eslot, e1)
	flow, pstart, path := resize(c.spareFlow, n), resize(c.sparePstart, n+1), resize(c.sparePath, p1)
	w, a = 0, 0
	pw, ri := 0, 0
	for j := 0; j < n; {
		if ri < len(c.runs) && int(c.runs[ri].new) == j {
			rn := c.runs[ri]
			ri++
			i0, i1, j1 := int(rn.old), int(rn.old+rn.n), j+int(rn.n)
			eoff, poff := int32(w)-old.estart[i0], int32(pw)-c.pstart[i0]
			de, dp, op := estart[j:j1], pstart[j:j1], c.pstart[i0:i1]
			for t, v := range old.estart[i0:i1] {
				de[t], dp[t] = v+eoff, op[t]+poff
			}
			copy(weight[j:j1], old.weight[i0:i1])
			copy(flow[j:j1], c.flow[i0:i1])
			pw += copy(path[pw:], c.path[c.pstart[i0]:c.pstart[i1]])
			src := old.eslot[old.estart[i0]:old.estart[i1]]
			dst := eslot[w : w+len(src)]
			for t, s := range src {
				dst[t] = slotmap[s]
			}
			w, j = w+len(src), j1
			continue
		}
		r := &reports[j]
		estart[j], pstart[j], flow[j] = int32(w), int32(pw), r.FlowID
		pw += copy(path[pw:], r.Path)
		if len(r.Path) > 0 {
			weight[j] = 1.0 / float64(len(r.Path))
		}
		for ; a < len(keys) && int(keys[a]>>32) == j; a++ {
			eslot[w], w = int32(uint32(keys[a])), w+1
		}
		j++
	}
	estart[n], pstart[n] = int32(w), int32(pw)

	// The votes of rebuilt rows, summed in report order as the fresh build
	// sums one chunk, and the slots whose vote moved.
	moved := c.moved[:0]
	for q, ns := range rebuilt {
		var v float64
		for _, r := range lrep[lstart[ns]:lstart[ns+1]] {
			v += weight[r]
		}
		votes[ns] = v
		if so := rebuiltOld[q]; so < 0 || v != old.votes[so] {
			moved = append(moved, ns)
			if so >= 0 {
				slotmap[so] = -1
			}
		}
	}
	for _, s := range touched {
		gone[s], more[s] = 0, 0
	}

	nx.reports = reports
	nx.links, nx.votes, nx.lstart, nx.lrep = links, votes, lstart, lrep
	nx.estart, nx.eslot, nx.weight = estart, eslot, weight
	nx.shared = resize(nx.shared, len(links))
	clear(nx.shared)
	nx.touched = nx.touched[:0]
	old.reports = nil
	c.ix, c.spare = nx, old
	c.flow, c.spareFlow = flow, c.flow
	c.pstart, c.sparePstart = pstart, c.pstart
	c.path, c.sparePath = path, c.path
	c.gone, c.more, c.slotmap, c.touched = gone, more, slotmap, touched
	c.entering, c.addKeys, c.rebuilt, c.rebuiltOld, c.moved = entering, keys, rebuilt, rebuiltOld, moved
}

// rerank is the ranking of a patched index: the carried order with slots
// remapped and those whose vote moved taken out, merged with the moved
// slots in ranking order. The kept slots' votes and relative LinkID order
// are unchanged, so they are still in ranking order among themselves; the
// carried order, read through the carried index (c.spare once patched), is
// sorted, so each moved slot's place in it is a binary search. The ranking
// is built alongside the order, for ranking to hand out.
func (c *carry) rerank() {
	links, votes, moved, slotmap := c.ix.links, c.ix.votes, c.moved, c.slotmap
	slices.SortFunc(moved, func(a, b int32) int {
		return cmp.Or(cmp.Compare(votes[b], votes[a]), cmp.Compare(a, b))
	})
	prev, old := c.order, c.spare
	order, out := resize(c.spareOrd, len(votes)), make([]LinkVotes, len(votes))
	w, i := 0, 0
	copyKept := func(to int) {
		for ; i < to; i++ {
			if ns := slotmap[prev[i]]; ns >= 0 {
				order[w], out[w], w = ns, LinkVotes{Link: links[ns], Votes: votes[ns]}, w+1
			}
		}
	}
	for _, ms := range moved {
		lv := LinkVotes{Link: links[ms], Votes: votes[ms]}
		at, _ := slices.BinarySearchFunc(prev[i:], lv, func(s int32, x LinkVotes) int {
			return cmp.Or(cmp.Compare(x.Votes, old.votes[s]), cmp.Compare(old.links[s], x.Link))
		})
		copyKept(i + at)
		order[w], out[w], w = ms, lv, w+1
	}
	copyKept(len(prev))
	c.order, c.spareOrd, c.out = order[:w], prev, out[:w]
}

// ranking hands out the loaded ranking.
func (c *carry) ranking() []LinkVotes {
	out := c.out
	if !c.patched {
		out = linkVotes(c.ix.links, c.ix.votes, c.order)
	}
	c.out = nil
	return out
}

// classify issues the verdicts of the loaded reports given B, and carries
// them, with B, to the next call. A verdict reads only its report's slots —
// their links, their votes and their membership in B — so after a patch an
// unchanged report none of whose slots moved or changed membership keeps
// its carried verdict, and only the rest are issued afresh, as
// index.classify issues them.
func (c *carry) classify(detected []topology.LinkID) []Verdict {
	ix := c.ix
	if !c.patched {
		out := ix.classify(ix.votes, detected)
		if c.records() {
			c.verdicts, c.detected = append(c.verdicts[:0], out...), append(c.detected[:0], detected...)
			c.valid = true
		}
		return out
	}
	n := len(ix.reports)
	inB := resize(c.inB, len(ix.links))
	clear(inB)
	ix.markB(inB, detected, 1)
	ix.markB(inB, c.detected, 2)
	stale, redo := resize(c.stale, n), c.redo[:0]
	clear(stale)
	mark := func(s int32) {
		for _, r := range ix.lrep[ix.lstart[s]:ix.lstart[s+1]] {
			if !stale[r] {
				stale[r], redo = true, append(redo, r)
			}
		}
	}
	for _, s := range c.moved {
		mark(s)
	}
	for _, ls := range [2][]topology.LinkID{detected, c.detected} {
		for _, l := range ls {
			if s := ix.slot(l); s >= 0 && (inB[s] == 1 || inB[s] == 2) {
				mark(int32(s))
			}
		}
	}
	for _, j := range c.added {
		if !stale[j] {
			stale[j], redo = true, append(redo, j)
		}
	}

	out := make([]Verdict, n)
	for _, rn := range c.runs {
		copy(out[rn.new:rn.new+rn.n], c.verdicts[rn.old:rn.old+rn.n])
	}
	for _, i := range redo {
		out[i] = ix.verdict(i, ix.votes, inB)
	}
	c.inB, c.stale, c.redo = inB, stale, redo
	c.verdicts, c.detected = append(c.verdicts[:0], out...), append(c.detected[:0], detected...)
	c.valid = true
	return out
}
