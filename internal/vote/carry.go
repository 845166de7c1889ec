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

// carry is the analysis Localize keeps from one call to the next: the index
// and ranking it built last, and the inputs of that index some output reads
// — per report, its position, FlowID and path. A settle loop's consecutive
// epochs mostly repeat each other's reports, so a call aligns its reports
// against these and patches the index and ranking where they changed, in
// place of a rebuild. The patch reproduces the fresh build's arrays exactly
// (DESIGN.md, "Analysis cost model").
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

	// The last call's ranking, and the one rerank built for this call.
	rank, out []LinkVotes

	// The last call's verdicts and B, and the classify scratch: per new
	// slot, bit 1 for B and bit 2 for the carried B; per report, whether
	// its carried verdict is stale.
	verdicts []Verdict
	detected []topology.LinkID
	inB      []uint8
	stale    []bool
	redo     []int32

	// keepSums: both sides fit one summation chunk. patched: the last load
	// patched. keep: the call records its reports, ranking and verdicts
	// for the next. valid: the carry describes the last call whole, so the
	// next may align against it. skip and backoff: fresh calls left that
	// record nothing, and how many the next failed alignment sets.
	keepSums, patched, keep, valid bool
	skip, backoff                  int
}

// maxBackoff caps the fresh calls that record nothing after a failed
// alignment.
const maxBackoff = 64

// run is n unchanged reports: old positions old.., new positions new...
type run struct{ old, new, n int32 }

// release hands the carry back for the next call, holding no reference to
// this call's reports.
func (c *carry) release() {
	c.ix.reports = nil
	carried <- c
}

// carried holds the one carry. A caller that finds it taken builds a fresh
// index of its own, so concurrent callers never wait on each other.
var carried = func() chan *carry {
	ch := make(chan *carry, 1)
	ch <- &carry{ix: new(index), spare: new(index)}
	return ch
}()

// load indexes and ranks reports into c.ix and c.order, patching the
// carried index when few reports changed, and reports whether it patched.
// The reports must stay unmodified until c.ix.reports is cleared.
//
// A call that found the carried reports too different builds fresh, and
// so do the next few, recording nothing; then one records again. Each
// failed alignment in a row doubles how many skip (up to maxBackoff), so
// a caller whose epochs are unrelated seldom pays for recording what no
// call patches, while a stream of related epochs that met one odd epoch
// patches again from the third call after it.
func (c *carry) load(reports []Report) (patched bool) {
	phaseAlign.Begin()
	patched = c.align(reports)
	switch {
	case patched:
		c.keep, c.backoff = true, 0
	case c.valid:
		c.backoff = min(max(1, 2*c.backoff), maxBackoff)
		c.keep, c.skip = false, c.backoff
	case c.skip > 0:
		c.keep, c.skip = false, c.skip-1
	default:
		c.keep = true
	}
	c.patched, c.valid = patched, false
	phaseAlign.End()
	phaseIndex.Begin()
	if patched {
		c.patch(reports)
	} else {
		c.ix.build(reports)
		if c.keep {
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
// carried or more than the fallback share changed.
func (c *carry) align(reports []Report) bool {
	n0, n1 := len(c.flow), len(reports)
	if !c.valid || n0 == 0 || n1 == 0 {
		return false
	}
	limit := (n0 + n1) / carryMaxChanged
	posmap := resize(c.posmap, n0)
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
	c.posmap, c.removed, c.added = posmap, removed, added
	c.keepSums = max(n0, n1) <= 1<<sumChunkShift
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
// rebuilt, and only their votes re-summed (every row's, once either side
// spans more than one summation chunk, since shifting positions move chunk
// membership).
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

	// The votes of rebuilt rows (of every row past one summation chunk),
	// and the slots whose vote moved.
	moved := c.moved[:0]
	if c.keepSums {
		for q, ns := range rebuilt {
			votes[ns] = sumRow(lrep[lstart[ns]:lstart[ns+1]], weight)
			if so := rebuiltOld[q]; so < 0 || votes[ns] != old.votes[so] {
				moved = append(moved, ns)
				if so >= 0 {
					slotmap[so] = -1
				}
			}
		}
	} else {
		for ns := range links {
			votes[ns] = sumRow(lrep[lstart[ns]:lstart[ns+1]], weight)
		}
		for so, ns := range slotmap {
			if ns >= 0 && votes[ns] != old.votes[so] {
				moved, slotmap[so] = append(moved, ns), -1
			}
		}
		for q, ns := range rebuilt {
			if rebuiltOld[q] < 0 {
				moved = append(moved, ns)
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

// sumRow is a slot's vote: its reports' weights summed per summation chunk,
// the chunk sums folded in report order — the fresh build's arithmetic.
func sumRow(row []int32, weight []float64) float64 {
	if len(row) == 0 {
		return 0
	}
	var sum, part float64
	chunk := uint32(row[0]) >> sumChunkShift
	for _, r := range row {
		if ch := uint32(r) >> sumChunkShift; ch != chunk {
			sum, part, chunk = sum+part, 0, ch
		}
		part += weight[r]
	}
	return sum + part
}

// rerank is the ranking of a patched index: the carried order with slots
// remapped and those whose vote moved taken out, merged with the moved
// slots in ranking order. The kept slots' votes and relative LinkID order
// are unchanged, so they are still in ranking order among themselves, and
// their LinkVotes are the carried ranking's; the carried ranking is sorted,
// so each moved slot's place in it is a binary search. The ranking is
// built alongside the order, for ranking to hand out.
func (c *carry) rerank() {
	links, votes, moved, slotmap := c.ix.links, c.ix.votes, c.moved, c.slotmap
	slices.SortFunc(moved, func(a, b int32) int {
		return cmp.Or(cmp.Compare(votes[b], votes[a]), cmp.Compare(a, b))
	})
	prev, prevRank := c.order, c.rank
	order, out := resize(c.spareOrd, len(votes)), make([]LinkVotes, len(votes))
	w, i := 0, 0
	copyKept := func(to int) {
		for ; i < to; i++ {
			if ns := slotmap[prev[i]]; ns >= 0 {
				order[w], out[w], w = ns, prevRank[i], w+1
			}
		}
	}
	for _, ms := range moved {
		lv := LinkVotes{Link: links[ms], Votes: votes[ms]}
		at, _ := slices.BinarySearchFunc(prevRank[i:], lv, func(r, x LinkVotes) int {
			return cmp.Or(cmp.Compare(x.Votes, r.Votes), cmp.Compare(r.Link, x.Link))
		})
		copyKept(i + at)
		order[w], out[w], w = ms, lv, w+1
	}
	copyKept(len(prev))
	c.order, c.spareOrd, c.out = order[:w], prev, out[:w]
}

// ranking hands out the loaded ranking, and carries a copy of it.
func (c *carry) ranking(t *Tally) []LinkVotes {
	out := c.out
	if !c.patched {
		out = t.linkVotes(c.order)
	}
	c.out = nil
	if c.keep {
		c.rank = append(c.rank[:0], out...)
	}
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
		if c.keep {
			c.verdicts, c.detected = append(c.verdicts[:0], out...), append(c.detected[:0], detected...)
			c.valid = true
		}
		return out
	}
	n := len(ix.reports)
	inB := resize(c.inB, len(ix.links))
	clear(inB)
	for _, l := range detected {
		if s := ix.slot(l); s >= 0 {
			inB[s] |= 1
		}
	}
	for _, l := range c.detected {
		if s := ix.slot(l); s >= 0 {
			inB[s] |= 2
		}
	}
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
		v := Verdict{FlowID: ix.reports[i].FlowID, Link: topology.NoLink, Noise: true}
		bestV := 0.0
		for _, s := range ix.eslot[ix.estart[i]:ix.estart[i+1]] {
			if ix.votes[s] > bestV {
				v.Link, bestV = ix.links[s], ix.votes[s]
			}
			if inB[s]&1 != 0 {
				v.Noise = false
			}
		}
		out[i] = v
	}
	c.inB, c.stale, c.redo = inB, stale, redo
	c.verdicts, c.detected = append(c.verdicts[:0], out...), append(c.detected[:0], detected...)
	c.valid = true
	return out
}
