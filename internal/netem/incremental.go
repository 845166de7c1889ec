// Incremental delta epochs for datacenter-scale topologies
// (Config.Incremental).
//
// The first epoch runs the full fused pipeline once, freezing the epoch
// seed and with it the flow set, and builds the delta cache: every flow's
// packet count, destination and ECMP choices (which the shard workers
// record in the same pass), the inverted link→flows index and the sorted
// failed-outcome list. That is all a re-score reads: a flow's source
// follows from its index, and ecmp.Router.Build lays its path out again
// from its hosts and choices. Every later epoch re-scores only the flows
// whose paths touch links whose rate or failure flag changed since the
// previous epoch — setRate records dirty links as schedules, injections
// and clears land — and carries every other flow's cached outcome forward.
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

// deltaArenaBlock sizes the delta re-score's arena blocks, in entries. The
// arena is never reset, and blocks four times a full epoch's make a warm
// delta epoch start a quarter as many (BenchmarkEpochDatacenterDelta).
const deltaArenaBlock = 4 * arenaBlock

// incState is the delta cache of an incremental simulation. It freezes the
// epoch's inputs (seed, flows, paths) and carries the previous epoch's
// outputs (failed outcomes, totals) forward so a delta epoch touches only
// the flows crossing changed links.
type incState struct {
	seeded    bool   // epochSeed drawn: the workload is frozen
	valid     bool   // cache live: the next epoch may run the delta path
	epochSeed uint64 // frozen seed shared by every incremental epoch

	// Per flow, dense by flow index: the frozen packet count, destination
	// and ECMP choices. With the flow's source (sourceOf) they fix its path
	// (path).
	packets []uint16
	dst     []topology.HostID
	choices []ecmp.Choices

	// Link → flows, CSR: link l is crossed by the ascending flow indexes
	// linkFlows[linkOff[l]:linkOff[l+1]]. A host uplink's row is empty: its
	// flows are its sources' contiguous flow-index ranges (gatherAffected).
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

	// The delta re-score's drop-stream RNG and outcome arena. The arena
	// also stores the paths of re-scored failed outcomes. It only appends,
	// so no slot an earlier epoch's result holds is ever written again.
	shard epochShard
}

// prepareBuild sizes the per-flow tables the full epoch's shard workers
// fill, each written over the disjoint flow ranges [flowBase[si],
// flowBase[si+1]) of a worker's sources.
func (inc *incState) prepareBuild(nflows int) {
	inc.packets = resize(inc.packets, nflows)
	inc.dst = resize(inc.dst, nflows)
	inc.choices = resize(inc.choices, nflows)
	inc.shard.arena.block = deltaArenaBlock
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

// testAndSet adds i and reports whether it was already present.
func (b bitset) testAndSet(i int) bool {
	w, m := &b[i/64], uint64(1)<<(i%64)
	had := *w&m != 0
	*w |= m
	return had
}

// unset removes i.
func (b bitset) unset(i int) { b[i/64] &^= 1 << (i % 64) }

// sourceOf returns the source that generated flow fi: sources generate
// their flows into contiguous index ranges, [flowBase[si], flowBase[si+1]).
func (s *Sim) sourceOf(fi int64) topology.HostID {
	si, _ := slices.BinarySearch(s.flowBase, int32(fi+1))
	return s.sources()[si-1]
}

// path lays flow fi's cached path out into buf and returns it with the
// flow's source.
func (s *Sim) path(fi int64, buf *ecmp.PathBuf) (topology.HostID, []topology.LinkID) {
	src := s.sourceOf(fi)
	s.router.Build(src, s.inc.dst[fi], s.inc.choices[fi], buf)
	return src, buf.Links()
}

// buildIncCache finalizes the delta cache from a just-completed full epoch
// whose shard workers recorded every flow: build the link→flows CSR from
// the flows' paths and snapshot the epoch's outputs. The CSR is a counting
// sort split over static source ranges, one per Parallelism worker: each
// worker lays out its flows' paths and counts their links, one prefix pass
// over (link, worker) places every worker's share of each row after the
// shares of the workers before it, and each worker lays its paths out again
// to scatter them. Rows therefore hold their flow indexes in ascending
// order, exactly as a sequential counting sort leaves them. A layout is a
// few multiplies (ecmp.Router.Build), so laying each path out twice costs
// less than a table of the paths would cost to keep.
func (s *Sim) buildIncCache(ep *Epoch) {
	inc := &s.inc
	nflows := len(inc.packets)
	nlinks := len(s.topo.Links)
	nsrc := len(s.sources())
	nw := max(min(par.Workers(s.cfg.Parallelism), nsrc), 1)
	paths := func(w int, fn func(f int32, links []topology.LinkID)) {
		srcs := s.sources()
		var buf ecmp.PathBuf
		for si := w * nsrc / nw; si < (w+1)*nsrc/nw; si++ {
			for f := s.flowBase[si]; f < s.flowBase[si+1]; f++ {
				s.router.Build(srcs[si], inc.dst[f], inc.choices[f], &buf)
				fn(f, buf.Links()[1:]) // a host uplink's row stays empty
			}
		}
	}

	// cursor[w*nlinks+l] counts worker w's crossings of link l, then holds
	// where the worker writes its next flow into row l.
	cursor := make([]int32, nw*nlinks)
	par.ForEach(nw, nw, func(w int) {
		cnt := cursor[w*nlinks : (w+1)*nlinks]
		paths(w, func(_ int32, links []topology.LinkID) {
			for _, l := range links {
				cnt[l]++
			}
		})
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
		paths(w, func(f int32, links []topology.LinkID) {
			for _, l := range links {
				inc.linkFlows[next[l]] = f
				next[l]++
			}
		})
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
// deduplicated through affectedFlow. A dirty host uplink adds the flows
// of every source that host is, which the CSR leaves out.
func (s *Sim) gatherAffected() []int32 {
	inc := &s.inc
	aff := inc.affected[:0]
	add := func(fi int32) {
		if !inc.affectedFlow.testAndSet(int(fi)) {
			aff = append(aff, fi)
		}
	}
	srcs := s.sources()
	for _, l := range inc.dirty {
		inc.dirtyLink.unset(int(l))
		for _, fi := range inc.linkFlows[inc.linkOff[l]:inc.linkOff[l+1]] {
			add(fi)
		}
		if link := &s.topo.Links[l]; link.Class == topology.HostUp {
			h := topology.HostID(link.From.ID)
			lo, hi := 0, len(srcs)
			if s.cfg.Workload.Hosts == nil {
				lo, hi = int(h), int(h)+1 // every host is a source, in order
			}
			for si := lo; si < hi; si++ {
				if srcs[si] != h {
					continue
				}
				for fi := s.flowBase[si]; fi < s.flowBase[si+1]; fi++ {
					add(fi)
				}
			}
		}
	}
	inc.dirty = inc.dirty[:0]
	for _, fi := range aff {
		inc.affectedFlow.unset(int(fi))
	}
	slices.Sort(aff)
	inc.affected = aff
	return aff
}

// runEpochDelta is the incremental epoch: gather the flows affected by
// dirty links, re-score just those on the caller's goroutine from their
// cached paths and frozen draw streams, and merge the new outcomes into
// the cached failed list — retire the affected flows' old outcomes, keep
// every unaffected outcome, add the new ones. The merged list stays in
// flow-index order, so once resolveBudget has run over the epoch's copy of
// it, a delta epoch is bit-identical to re-scoring every flow of the
// frozen workload against the current rates (see
// TestIncrementalMatchesFullRescore).
func (s *Sim) runEpochDelta() *Epoch {
	inc := &s.inc
	phaseDelta.Begin()
	defer phaseDelta.End()
	aff := s.gatherAffected()

	// Inline, not fanned out: the few hundred flows crossing the changed
	// links are too little work to pay for worker goroutines (DESIGN.md
	// "Parallelism knobs"). Cached outcomes and the affected list are both
	// sorted by flow index; an affected flow's cached outcome always
	// retires, and lends its path to the flow's new outcome, if any.
	old, merged := inc.failed, inc.spare[:0]
	i := 0
	for _, fi := range aff {
		for i < len(old) && old[i].FlowID < int64(fi) {
			merged = append(merged, old[i])
			i++
		}
		var path []topology.LinkID
		if i < len(old) && old[i].FlowID == int64(fi) {
			path = old[i].Path
			i++
		}
		if out, failedFlow := s.rescoreFlow(int64(fi), path); failedFlow {
			merged = append(merged, out)
		}
	}
	merged = append(merged, old[i:]...)
	inc.failed, inc.spare = merged, old

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

// rescoreFlow re-scores one frozen flow against the current link rates,
// laying its path out again from the cache and drawing from the same
// private stream the full pipeline would, and returns its outcome and
// whether it lost packets. A flow's path never changes, so the outcome
// takes prev, the path of its retiring outcome, when it had one; otherwise
// the path is copied into the cache's own arena. Either way no slot an
// earlier epoch's result holds is written.
func (s *Sim) rescoreFlow(fi int64, prev []topology.LinkID) (FlowOutcome, bool) {
	inc := &s.inc
	var buf ecmp.PathBuf
	src, links := s.path(fi, &buf)
	out, dropped := s.scoreFlow(&inc.shard, inc.epochSeed, fi, links, int(inc.packets[fi]))
	if dropped {
		out.Src, out.Dst = src, inc.dst[fi]
		if out.Path = prev; prev == nil {
			out.Path = inc.shard.arena.copyPath(links)
		}
	}
	return out, dropped
}

// Reference oracle: rescoreAll invalidates the delta cache, so the next
// RunEpoch re-scores every flow of the frozen workload through the full
// pipeline and rebuilds the cache. Results are bit-identical either way;
// delta epochs are tested against it. It is a no-op on non-incremental
// simulations.
func (s *Sim) rescoreAll() { s.inc.valid = false }
