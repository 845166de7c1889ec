// Incremental delta epochs for datacenter-scale topologies
// (Config.Incremental).
//
// The first epoch runs the full fused pipeline once, freezing the epoch
// seed and with it the flow set, and builds the delta cache: every flow's
// packet count and resolved path (a fixed-stride flow→path table the shard
// workers fill in the same pass), the inverted link→flows index and the
// sorted failed-outcome list. That is all a re-score reads: a path's first
// link leaves the flow's source and its last link enters its destination.
// Every later epoch re-scores only the flows whose paths touch links whose
// rate or failure flag changed since the previous epoch — setRate records
// dirty links as schedules, injections and clears land — and carries every
// other flow's cached outcome forward.
//
// The skip is exact, not approximate: each flow draws its drops from its
// private (epochSeed, flow index) stream, and with the seed frozen,
// re-scoring a flow none of whose links changed would reproduce its cached
// outcome bit for bit. rescoreAll invalidates the cache (the seed stays
// frozen) so the next epoch recomputes everything through the full
// pipeline — the equivalence oracle the tests compare delta epochs
// against.
package netem

import (
	"slices"

	"vigil/internal/ecmp"
	"vigil/internal/par"
	"vigil/internal/topology"
)

// incState is the delta cache of an incremental simulation. It freezes the
// epoch's inputs (seed, flows, paths) and carries the previous epoch's
// outputs (failed outcomes, totals) forward so a delta epoch touches only
// the flows crossing changed links.
type incState struct {
	seeded    bool   // epochSeed drawn: the workload is frozen
	valid     bool   // cache live: the next epoch may run the delta path
	epochSeed uint64 // frozen seed shared by every incremental epoch

	packets []uint16 // frozen per-flow packet counts, dense by flow index

	// Flow → path, fixed stride: flow fi crosses
	// pathLinks[fi*MaxPathLinks:][:pathLen[fi]]. The full epoch's shard
	// workers write each flow's slots directly, and pathLinks is stable for
	// the cache's lifetime, so delta outcomes alias it as their Path
	// instead of copying.
	pathLen   []uint8
	pathLinks []topology.LinkID

	// Link → flows, CSR: link l is crossed by the ascending flow indexes
	// linkFlows[linkOff[l]:linkOff[l+1]].
	linkOff   []int32
	linkFlows []int32

	// Previous epoch's outputs. failed is sorted by FlowID; its Traced flags
	// are stale — the traceroute budget is a per-epoch overlay that
	// resolveBudget rewrites on each epoch's own copy. A delta epoch merges
	// failed into spare and swaps the two.
	failed, spare []FlowOutcome
	totalPackets  int

	// dirty accumulates the links whose rate or failure flag changed since
	// the last epoch (recorded by setRate), with dirtyLink as its
	// membership set; affected is the epoch's sorted affected-flow list,
	// with affectedFlow as its membership set. A delta epoch drains both
	// and clears their bits as it goes, so the sets are empty between
	// epochs.
	dirty        []topology.LinkID
	dirtyLink    bitset
	affected     []int32
	affectedFlow bitset

	// The delta re-score's own drop-stream RNG and outcome arena, and the
	// re-scored flows' failed outcomes in flow-index order.
	shard   epochShard
	newFlat []FlowOutcome
}

// prepareBuild sizes the tables the full epoch's shard workers fill: the
// packet counts and the fixed-stride flow→path table, each written over
// the disjoint flow ranges [flowBase[si], flowBase[si+1]) of a worker's
// sources.
func (inc *incState) prepareBuild(nflows int) {
	inc.packets = resize(inc.packets, nflows)
	inc.pathLen = resize(inc.pathLen, nflows)
	inc.pathLinks = resize(inc.pathLinks, nflows*ecmp.MaxPathLinks)
}

// resize returns s with length n, reusing its storage when it is large
// enough. Contents are unspecified: every caller overwrites or clears them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bitset is a dense set of small non-negative integers.
type bitset []uint64

// newBitset returns b resized to hold 0..n-1, empty.
func newBitset(b bitset, n int) bitset {
	b = resize(b, (n+63)/64)
	clear(b)
	return b
}

// has reports whether i is present.
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// testAndSet adds i and reports whether it was already present.
func (b bitset) testAndSet(i int) bool {
	w, m := &b[i/64], uint64(1)<<(i%64)
	had := *w&m != 0
	*w |= m
	return had
}

// unset removes i.
func (b bitset) unset(i int) { b[i/64] &^= 1 << (i % 64) }

// path returns flow fi's cached path, capped so no append can reach the
// next flow's slots.
func (inc *incState) path(fi int64) []topology.LinkID {
	lo := int(fi) * ecmp.MaxPathLinks
	hi := lo + int(inc.pathLen[fi])
	return inc.pathLinks[lo:hi:hi]
}

// buildIncCache finalizes the delta cache from a just-completed full epoch
// whose shard workers filled the flow→path table: transpose it into the
// link→flows CSR and snapshot the epoch's outputs. The transpose is a
// counting sort split over static flow ranges, one per Parallelism worker:
// each worker counts the links of its range, one prefix pass over (link,
// worker) places every worker's share of each row after the shares of the
// workers before it, and each worker scatters its range. Rows therefore
// hold their flow indexes in ascending order, exactly as a sequential
// counting sort leaves them — gatherAffected's merge order relies on it.
func (s *Sim) buildIncCache(ep *Epoch) {
	inc := &s.inc
	nflows := len(inc.packets)
	nlinks := len(s.topo.Links)
	nw := max(min(par.Workers(s.cfg.Parallelism), nflows), 1)
	span := func(w int) (int, int) { return w * nflows / nw, (w + 1) * nflows / nw }

	// cursor[w*nlinks+l] counts worker w's crossings of link l, then holds
	// where the worker writes its next flow into row l.
	cursor := make([]int32, nw*nlinks)
	par.ForEach(nw, nw, func(w int) {
		cnt := cursor[w*nlinks : (w+1)*nlinks]
		lo, hi := span(w)
		for f := lo; f < hi; f++ {
			for _, l := range inc.path(int64(f)) {
				cnt[l]++
			}
		}
	})
	inc.linkOff = resize(inc.linkOff, nlinks+1)
	off := int32(0)
	for l := 0; l < nlinks; l++ {
		inc.linkOff[l] = off
		for w := 0; w < nw; w++ {
			c := &cursor[w*nlinks+l]
			*c, off = off, off+*c
		}
	}
	inc.linkOff[nlinks] = off
	inc.linkFlows = resize(inc.linkFlows, int(off))
	par.ForEach(nw, nw, func(w int) {
		next := cursor[w*nlinks : (w+1)*nlinks]
		lo, hi := span(w)
		for f := lo; f < hi; f++ {
			for _, l := range inc.path(int64(f)) {
				inc.linkFlows[next[l]] = int32(f)
				next[l]++
			}
		}
	})

	// Snapshot the epoch's outputs. The cached outcomes share Path and
	// DropsByLink storage with ep.Failed (read-only from here on).
	inc.failed = append(inc.failed[:0], ep.Failed...)
	inc.totalPackets = ep.TotalPackets

	// Empty sets: a rebuild after rescoreAll may find links that setRate
	// marked dirty before the cache went invalid.
	inc.dirtyLink = newBitset(inc.dirtyLink, nlinks)
	inc.affectedFlow = newBitset(inc.affectedFlow, nflows)
	inc.dirty = inc.dirty[:0]
	inc.valid = true
}

// gatherAffected drains the dirty-link set into the sorted list of flow
// indexes to re-score: the union of the dirty links' link→flows rows,
// deduplicated through affectedFlow. Those bits stay set until the merge
// has used them as the retirement membership test for cached outcomes.
func (s *Sim) gatherAffected() []int32 {
	inc := &s.inc
	aff := inc.affected[:0]
	for _, l := range inc.dirty {
		inc.dirtyLink.unset(int(l))
		for _, fi := range inc.linkFlows[inc.linkOff[l]:inc.linkOff[l+1]] {
			if !inc.affectedFlow.testAndSet(int(fi)) {
				aff = append(aff, fi)
			}
		}
	}
	inc.dirty = inc.dirty[:0]
	slices.Sort(aff)
	inc.affected = aff
	return aff
}

// runEpochDelta is the incremental epoch: gather the flows affected by
// dirty links, re-score just those on the caller's goroutine from their
// stored paths and frozen draw streams, and three-way-merge the new
// outcomes into the cached failed list — retire the affected flows' old
// outcomes, keep every unaffected outcome, add the new ones. The merged
// list stays in flow-index order, so once resolveBudget has run over the
// epoch's copy of it, a delta epoch is bit-identical to re-scoring every
// flow of the frozen workload against the current rates (see
// TestIncrementalMatchesFullRescore).
func (s *Sim) runEpochDelta() *Epoch {
	inc := &s.inc
	phaseDelta.Begin()
	defer phaseDelta.End()
	aff := s.gatherAffected()

	// Inline, not fanned out: the few hundred flows crossing the changed
	// links are too little work to pay for worker goroutines (DESIGN.md
	// "Parallelism knobs").
	news := inc.newFlat[:0]
	for _, fi := range aff {
		if out, failedFlow := s.rescoreFlow(&inc.shard, int64(fi)); failedFlow {
			news = append(news, out)
		}
	}
	inc.newFlat = news[:0]

	// Merge: cached outcomes and new outcomes are both sorted by FlowID
	// (the affected list is sorted), and an affected flow's cached outcome
	// always retires, whether or not a new outcome replaces it.
	old, merged := inc.failed, inc.spare[:0]
	i, j := 0, 0
	for i < len(old) || j < len(news) {
		if i < len(old) && (j >= len(news) || old[i].FlowID <= news[j].FlowID) {
			o := old[i]
			i++
			if inc.affectedFlow.has(int(o.FlowID)) {
				continue
			}
			merged = append(merged, o)
		} else {
			merged = append(merged, news[j])
			j++
		}
	}
	inc.failed, inc.spare = merged, old
	for _, fi := range aff {
		inc.affectedFlow.unset(int(fi))
	}

	ep := &Epoch{
		FailedLinks:  s.fails.Sorted(),
		TotalFlows:   len(inc.packets),
		TotalPackets: inc.totalPackets,
	}
	if len(merged) > 0 {
		ep.Failed = make([]FlowOutcome, len(merged))
		copy(ep.Failed, merged)
	}
	s.resolveBudget(ep)
	return ep
}

// rescoreFlow re-scores one frozen flow from its stored path against the
// current link rates, drawing from the same private stream the full
// pipeline would, and returns its outcome and whether it lost packets. The
// outcome's Path aliases the stable flow→path table — no copy — and its
// hosts are the path's ends, as ecmp.Router.PathInto lays a path out.
func (s *Sim) rescoreFlow(sh *epochShard, fi int64) (FlowOutcome, bool) {
	inc := &s.inc
	packets := int(inc.packets[fi])
	if packets == 0 {
		return FlowOutcome{}, false
	}
	links := inc.path(fi)
	var perLink [ecmp.MaxPathLinks]uint16
	drops := s.sampleFlowDrops(inc.epochSeed, fi, &sh.rng, links, packets, &perLink)
	if drops == 0 {
		return FlowOutcome{}, false
	}
	out := FlowOutcome{
		FlowID:      fi,
		Src:         topology.HostID(s.topo.Links[links[0]].From.ID),
		Dst:         topology.HostID(s.topo.Links[links[len(links)-1]].To.ID),
		Path:        links,
		Drops:       drops,
		DropsByLink: sh.arena.copyDrops(perLink[:len(links)]),
		Culprit:     culprit(links, perLink[:len(links)]),
	}
	for _, l := range links {
		if s.isFailed[l] {
			out.CrossedFailure = true
			break
		}
	}
	return out, true
}

// Reference oracle: rescoreAll invalidates the delta cache, so the next
// RunEpoch re-scores every flow of the frozen workload through the full
// pipeline and rebuilds the cache. Results are bit-identical either way;
// delta epochs are tested against it. It is a no-op on non-incremental
// simulations.
func (s *Sim) rescoreAll() { s.inc.valid = false }
