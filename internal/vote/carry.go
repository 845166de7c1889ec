package vote

import (
	"slices"

	"vigil/internal/prof"
	"vigil/internal/topology"
)

// carryMaxChanged bounds the share of changed reports a carried call
// patches: when more than (old + new reports) / carryMaxChanged reports
// were removed or added, the alignment gives up and the call takes the
// fresh build (DESIGN.md, "Analysis cost model").
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
// next. One producer's consecutive epochs mostly repeat each other's
// reports, so a call aligns its reports against the recorded ones and
// patches the recorded index where they changed, in place of a rebuild.
// In a recorded index a link keeps its slot and a report its handle for as
// long as it stays, whatever comes and goes around it: a patch edits the
// rows and reports that changed where they lie, and the report order, the
// ranking and the verdicts are the recorded ones' runs, copied whole, with
// the changed entries spliced in. The outputs are a fresh build's, bit for
// bit (DESIGN.md, "Analysis cost model").
type carry struct {
	ix    *index
	order []int32 // ix's slots in ranking order
	rs    rankScratch

	// The recorded reports by handle: FlowID and path path[pstart[h]:pend[h]]
	// (NoLink placeholders and repeats included: a weight reads its path's
	// length). byPos lists the handles in report order. Handles and slots
	// are only ever added, and lrep, eslot and path only appended to; arena
	// is their size when last built fresh.
	flow         []int64
	pstart, pend []int32
	path         []topology.LinkID
	byPos        []int32
	arena        int

	// The recorded outputs: ranking (order is its slots), verdicts and B.
	ranked   []LinkVotes
	verdicts []Verdict
	detected []topology.LinkID

	// The alignment: unchanged reports as runs, and the changed ones.
	runs           []run
	removed, added []int32 // old and new positions, ascending

	// Patch scratch (entries: the added path entries, link<<32 | index in
	// added), and the buffers the next splices write.
	entries, rankKeys                   []uint64
	touched, moved, enter, at, gone     []int32
	left, ins, spareRanked              []LinkVotes
	inB                                 []uint8
	stale                               []bool
	spareByLink, spareByPos, spareOrder []int32
	spareVerdicts                       []Verdict

	// work counts what the last patched call wrote outside bulk copies:
	// entries, rows touched and verdicts recomputed.
	work int

	// patched: the last load patched. valid: the carry describes the last
	// call whole, so the next may align against it. local: a pooled carry
	// of a call with no stream of its own, which never records.
	patched, valid, local bool
}

// run is n unchanged reports: old positions old.., new positions new...
type run struct{ old, new, n int32 }

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
// list, holding no reference to this call's reports. A stream's slot holds
// its carry only while no call has it, so a slot that is full or nil here
// is a bug, and panics rather than blocks.
func (c *carry) release(stream chan *carry) {
	c.ix.reports = nil
	if c.local {
		localFree.put(c)
		return
	}
	select {
	case stream <- c:
	default:
		panic("vote: a carry released to a stream slot that is full or nil")
	}
}

// load indexes and ranks reports into c.ix and c.order, patching the
// recorded index when few reports changed, and reports whether it patched.
// The reports must stay unmodified until c.ix.reports is cleared.
func (c *carry) load(reports []Report) (patched bool) {
	phaseAlign.Begin()
	patched = c.align(reports)
	c.patched, c.valid, c.work = patched, false, 0
	phaseAlign.End()
	phaseIndex.Begin()
	if patched {
		c.patch(reports)
	} else if c.ix.build(reports); !c.local {
		c.remember(reports)
	}
	phaseIndex.End()
	phaseRank.Begin()
	if patched {
		c.rerank()
	} else {
		order := c.rs.rank(c.ix.units)
		c.order, c.rs.order = order, c.order
	}
	phaseRank.End()
	return patched
}

// align matches reports against the recorded ones with two pointers, in
// FlowID order: a report is unchanged when the recorded report it meets
// has its FlowID and path, and removed or added otherwise. Whatever order
// the reports come in, the unchanged ones keep their relative order on
// both sides, which is all the patch needs; reports out of FlowID order
// only match less. It reports false, and the call builds fresh, when
// nothing is recorded, more than the fallback share changed, or the arenas
// quadrupled.
func (c *carry) align(reports []Report) bool {
	n0, n1 := len(c.byPos), len(reports)
	if !c.valid || n0 == 0 || n1 == 0 || c.size() > 4*c.arena {
		return false
	}
	limit := (n0 + n1) / carryMaxChanged
	runs, removed, added := c.runs[:0], c.removed[:0], c.added[:0]
	i, j := 0, 0
	for i < n0 && j < n1 && len(removed)+len(added) <= limit {
		i0, j0 := i, j
		for ; i < n0 && j < n1; i, j = i+1, j+1 {
			if h, r := c.byPos[i], &reports[j]; c.flow[h] != r.FlowID || !slices.Equal(c.path[c.pstart[h]:c.pend[h]], r.Path) {
				break
			}
		}
		if i > i0 {
			runs = append(runs, run{int32(i0), int32(j0), int32(i - i0)})
			continue
		}
		// An edited report (same FlowID, another path) goes and comes.
		o, f := c.flow[c.byPos[i]], reports[j].FlowID
		if o <= f {
			removed, i = append(removed, int32(i)), i+1
		}
		if o >= f {
			added, j = append(added, int32(j)), j+1
		}
	}
	c.runs, c.removed, c.added = runs, removed, added
	if len(removed)+len(added)+n0-i+n1-j > limit {
		return false
	}
	for ; i < n0; i++ {
		removed = append(removed, int32(i))
	}
	for ; j < n1; j++ {
		added = append(added, int32(j))
	}
	c.removed, c.added = removed, added
	return true
}

// remember records the freshly built index and its reports for the next
// call: slots and handles are the fresh build's, byLink and byPos the
// identity.
func (c *carry) remember(reports []Report) {
	ix := c.ix
	m, n := len(ix.links), len(reports)
	ix.lstart, ix.estart = ix.lstart[:m], ix.estart[:n]
	c.flow, c.byPos = resize(c.flow, n), resize(c.byPos, n)
	c.pstart, c.pend, c.path = resize(c.pstart, n), resize(c.pend, n), c.path[:0]
	for i := range reports {
		c.flow[i], c.byPos[i] = reports[i].FlowID, int32(i)
		c.pstart[i] = int32(len(c.path))
		c.path = append(c.path, reports[i].Path...)
		c.pend[i] = int32(len(c.path))
	}
	c.arena = c.size()
}

// size is the length of the arrays a patch appends to.
func (c *carry) size() int {
	return len(c.ix.lrep) + len(c.ix.eslot) + len(c.ix.links) + len(c.path) + len(c.flow)
}

// patch edits the recorded index into the index of reports. A removed
// report leaves its rows, which keep the others' entries in order; an added
// one takes a new handle and joins its rows, each row it joins written anew
// at the end of lrep with the added entries after the rest. A link new to
// the index takes a new slot. A row's units move by the changed reports'
// units alone, and a touched row's vote is divided out afresh.
func (c *carry) patch(reports []Report) {
	ix := c.ix
	ix.reports = reports
	(&ObservedAdjuster{ix: ix}).Begin(topology.NoLink) // clears the last call's adjuster scratch
	if len(c.ranked) == 0 {
		for _, s := range c.order {
			c.ranked = append(c.ranked, LinkVotes{ix.links[s], ix.votes[s]})
		}
	}
	old := c.byPos
	byPos := resize(c.spareByPos, len(reports))
	for _, rn := range c.runs {
		copy(byPos[rn.new:rn.new+rn.n], old[rn.old:rn.old+rn.n])
	}
	touched := c.touched[:0]
	for _, i := range c.removed {
		h := old[i]
		for _, s := range ix.eslot[ix.estart[h]:ix.eend[h]] {
			row := ix.lrep[ix.lstart[s]:ix.lend[s]]
			k := slices.Index(row, h)
			copy(row[k:], row[k+1:])
			ix.lend[s]--
			ix.units[s] -= ix.weight[h]
			touched = append(touched, s)
			c.work += len(row) - k
		}
	}
	keys := c.entries[:0]
	for a, j := range c.added {
		r := &reports[j]
		h, w, e := int32(len(c.flow)), unitsPer(r.Path), len(keys)
		byPos[j], c.flow = h, append(c.flow, r.FlowID)
		c.pstart, c.path = append(c.pstart, int32(len(c.path))), append(c.path, r.Path...)
		c.pend, ix.weight = append(c.pend, int32(len(c.path))), append(ix.weight, w)
		for _, l := range r.Path {
			if l >= 0 && w > 0 {
				keys = append(keys, uint64(l)<<32|uint64(a))
			}
		}
		// Its slots are written below, ascending; eend counts them in.
		ix.estart, ix.eend = append(ix.estart, int32(len(ix.eslot))), append(ix.eend, int32(len(ix.eslot)))
		ix.eslot = append(ix.eslot, make([]int32, len(keys)-e)...)
		c.work += len(r.Path)
	}
	// Sorted, a report's entries on one link are next to each other.
	slices.Sort(keys)
	enter, enterAt := c.enter[:0], c.at[:0]
	for k := 0; k < len(keys); {
		l := topology.LinkID(keys[k] >> 32)
		s := int32(ix.slot(l))
		if s < 0 {
			s, enter, enterAt = int32(len(ix.links)), append(enter, int32(len(ix.links))), append(enterAt, int32(ix.linkAt(l)))
			ix.links, ix.units, ix.votes = append(ix.links, l), append(ix.units, 0), append(ix.votes, 0)
			ix.lstart, ix.lend, ix.shared = append(ix.lstart, 0), append(ix.lend, 0), append(ix.shared, 0)
		}
		start := len(ix.lrep)
		ix.lrep = append(ix.lrep, ix.lrep[ix.lstart[s]:ix.lend[s]]...)
		for ; k < len(keys) && topology.LinkID(keys[k]>>32) == l; k++ {
			h := byPos[c.added[uint32(keys[k])]]
			ix.lrep = append(ix.lrep, h)
			ix.units[s] += ix.weight[h]
			ix.eslot[ix.eend[h]] = s
			ix.eend[h]++
		}
		ix.lstart[s], ix.lend[s] = int32(start), int32(len(ix.lrep))
		touched = append(touched, s)
		c.work += len(ix.lrep) - start
	}

	// The touched rows whose vote moved leave the ranking at their old
	// vote, and so do emptied ones. An emptied slot stays, with no vote,
	// for its link to come back to.
	moved, left := c.moved[:0], c.left[:0]
	for _, s := range touched {
		v, was := voteOf(ix.units[s]), ix.votes[s]
		if v == was {
			continue
		}
		if was > 0 {
			left = append(left, LinkVotes{ix.links[s], was})
		}
		if ix.votes[s] = v; v > 0 {
			moved = append(moved, s)
		}
	}
	if len(enter) > 0 {
		ix.byLink, c.spareByLink = splice(c.spareByLink, ix.byLink, nil, enter, enterAt), ix.byLink
	}
	c.work += len(touched) + len(enter)
	c.byPos, c.spareByPos = byPos, old
	c.entries, c.touched, c.moved, c.left, c.enter, c.at = keys, touched, moved, left, enter, enterAt
}

// rankAt is the number of ranked's entries before x in ranking order.
func rankAt(ranked []LinkVotes, x LinkVotes) int {
	lo, hi := 0, len(ranked)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ranked[mid].Votes > x.Votes || ranked[mid].Votes == x.Votes && ranked[mid].Link < x.Link {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splice appends to dst[:0] src without the elements at positions gone
// (ascending) and with ins[k] before src[at[k]] (at ascending), copying the
// runs of src in between whole.
func splice[T any](dst, src []T, gone []int32, ins []T, at []int32) []T {
	dst = dst[:0]
	i, g := 0, 0
	for k := 0; k <= len(ins); k++ {
		to := len(src)
		if k < len(ins) {
			to = int(at[k])
		}
		for ; g < len(gone) && int(gone[g]) < to; g++ {
			dst, i = append(dst, src[i:gone[g]]...), int(gone[g])+1
		}
		dst, i = append(dst, src[i:to]...), to
		if k < len(ins) {
			dst = append(dst, ins[k])
		}
	}
	return dst
}

// rerank is the ranking of a patched index: the recorded ranking without
// the slots whose vote moved or that left, found at their old vote, and
// with the moved ones spliced in at their new vote. The rest keep their
// votes and relative order, so the runs between are still in ranking
// order, and are copied whole.
func (c *carry) rerank() {
	gone, keys := c.gone[:0], c.rankKeys[:0]
	for _, lv := range c.left {
		gone = append(gone, int32(rankAt(c.ranked, lv)))
	}
	ix := c.ix
	for k, s := range c.moved {
		keys = append(keys, uint64(rankAt(c.ranked, LinkVotes{ix.links[s], ix.votes[s]}))<<32|uint64(k))
	}
	slices.Sort(gone)
	slices.Sort(keys)
	ins, slots, at := c.ins[:0], c.enter[:0], c.at[:0]
	for _, key := range keys {
		s, p := c.moved[uint32(key)], int32(key>>32)
		lv, k := LinkVotes{ix.links[s], ix.votes[s]}, len(ins) // moved slots with one place go in ranking order
		for ; k > 0 && at[k-1] == p && (ins[k-1].Votes < lv.Votes || ins[k-1].Votes == lv.Votes && ins[k-1].Link > lv.Link); k-- {
		}
		ins, slots, at = slices.Insert(ins, k, lv), slices.Insert(slots, k, s), append(at, p)
	}
	if len(ins)+len(gone) > 0 {
		c.ranked, c.spareRanked = splice(c.spareRanked, c.ranked, gone, ins, at), c.ranked
		c.order, c.spareOrder = splice(c.spareOrder, c.order, gone, slots, at), c.order
	}
	c.gone, c.rankKeys, c.ins, c.enter, c.at = gone, keys, ins, slots, at
	c.work += len(ins) + len(gone)
}

// ranking hands out the loaded ranking.
func (c *carry) ranking() []LinkVotes {
	if c.patched {
		return append([]LinkVotes{}, c.ranked...)
	}
	c.ranked = c.ranked[:0] // the next patch lists it, if there is one
	return linkVotes(c.ix.links, c.ix.votes, c.order)
}

// classify issues the verdicts of the loaded reports given B, and records
// them, with B, for the next call. A verdict reads only its report's slots
// — their links, their votes and their membership in B — so after a patch
// an unchanged report none of whose slots moved or changed membership
// keeps its recorded verdict, and only the rest are issued afresh, as
// index.classify issues them.
func (c *carry) classify(detected []topology.LinkID) []Verdict {
	ix, reports := c.ix, c.ix.reports
	if !c.patched {
		out := ix.classify(ix.votes, detected)
		if !c.local {
			c.verdicts, c.detected = append(c.verdicts[:0], out...), append(c.detected[:0], detected...)
			c.valid = true
		}
		return out
	}
	inB, stale := resize(c.inB, len(ix.links)), resize(c.stale, len(c.flow))
	clear(inB)
	clear(stale)
	ix.markB(inB, detected, 1)
	ix.markB(inB, c.detected, 2)
	// The stale reports, by handle: the added ones, and those on slots
	// that moved or changed membership.
	for _, j := range c.added {
		stale[c.byPos[j]] = true
	}
	mark := func(s int32) {
		for _, h := range ix.lrep[ix.lstart[s]:ix.lend[s]] {
			stale[h] = true
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

	verdicts := resize(c.spareVerdicts, len(reports))
	for _, rn := range c.runs {
		copy(verdicts[rn.new:rn.new+rn.n], c.verdicts[rn.old:rn.old+rn.n])
	}
	for j, h := range c.byPos {
		if stale[h] {
			verdicts[j] = ix.verdict(reports[j].FlowID, h, ix.votes, inB)
			c.work++
		}
	}
	c.inB, c.stale = inB, stale
	c.verdicts, c.spareVerdicts = verdicts, c.verdicts
	c.detected = append(c.detected[:0], detected...)
	c.valid = true
	return slices.Clone(verdicts)
}
