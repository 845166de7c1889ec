// Incremental delta epochs for datacenter-scale topologies
// (Config.Incremental).
//
// The first epoch runs the full fused pipeline once, freezing the epoch
// seed and with it the flow set, and builds the delta cache: every flow,
// its resolved path (flow→links CSR), the inverted link→flows index and the
// sorted failed-outcome list. Every later epoch re-scores only the flows
// whose paths touch links whose rate or failure flag changed since the
// previous epoch — setRate records dirty links as schedules, injections and
// clears land — and carries every other flow's cached outcome forward.
//
// The skip is exact, not approximate: each flow draws its drops from its
// private (epochSeed, flow index) stream, and with the seed frozen,
// re-scoring a flow none of whose links changed would reproduce its cached
// outcome bit for bit. RescoreAll invalidates the cache (the seed stays
// frozen) so the next epoch recomputes everything through the full
// pipeline — the equivalence oracle the tests compare delta epochs
// against.
package netem

import (
	"slices"

	"vigil/internal/ecmp"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// incState is the delta cache of an incremental simulation. It freezes the
// epoch's inputs (seed, flows, paths) and carries the previous epoch's
// outputs (failed outcomes, totals) forward so a delta epoch touches only
// the flows crossing changed links.
type incState struct {
	seeded    bool   // epochSeed drawn: the workload is frozen
	valid     bool   // cache live: the next epoch may run the delta path
	epochSeed uint64 // frozen seed shared by every incremental epoch

	flows []traffic.Flow // frozen flow set, dense by flow index

	// Flow → path, CSR: flow fi crosses pathLinks[pathOff[fi]:pathOff[fi+1]].
	// pathLinks is stable for the cache's lifetime, so delta outcomes alias
	// it as their Path instead of copying.
	pathOff   []int32
	pathLinks []topology.LinkID

	// Link → flows, CSR: link l is crossed by the ascending flow indexes
	// linkFlows[linkOff[l]:linkOff[l+1]].
	linkOff   []int32
	linkFlows []int32

	// Previous epoch's outputs. failed is sorted by FlowID with Traced
	// normalized to true — the traceroute budget is a per-epoch overlay
	// applied to each epoch's own copy, never to the cache. A delta epoch
	// merges failed into spare and swaps the two.
	failed, spare []FlowOutcome
	totalPackets  int
	totalDrops    int

	// dirty accumulates the links whose rate or failure flag changed since
	// the last epoch (recorded by setRate); linkStamp dedupes insertions and
	// flowStamp marks the current round's affected flows, so membership
	// tests are O(1) and neither array is ever cleared — round advances
	// past all stamps after every delta epoch.
	dirty     []topology.LinkID
	linkStamp []int32
	flowStamp []int32
	affected  []int32
	round     int32

	// Shard-loop scratch of the cache build.
	lensByChunk  [][]uint8
	linksByChunk [][]topology.LinkID

	// The delta re-score's own drop-stream RNG and outcome arena, and the
	// re-scored flows' failed outcomes in flow-index order.
	shard   epochShard
	newFlat []FlowOutcome
}

// prepareBuild sizes the cache-build scratch that the shard loop writes
// into: the dense flow table (workers fill disjoint [flowBase[si],
// flowBase[si+1]) ranges) and the per-chunk path-length and link buffers.
func (inc *incState) prepareBuild(nchunks, nflows int) {
	if cap(inc.flows) < nflows {
		inc.flows = make([]traffic.Flow, nflows)
	}
	inc.flows = inc.flows[:nflows]
	if cap(inc.lensByChunk) < nchunks {
		inc.lensByChunk = make([][]uint8, nchunks)
		inc.linksByChunk = make([][]topology.LinkID, nchunks)
	}
	inc.lensByChunk = inc.lensByChunk[:nchunks]
	inc.linksByChunk = inc.linksByChunk[:nchunks]
}

// buildIncCache finalizes the delta cache from a just-completed full epoch:
// concatenate the per-chunk path records into the flow→links CSR, invert it
// into the link→flows CSR, and snapshot the epoch's outputs. The build is a
// one-time sequential cost per (re)validation — a few linear scans over
// O(flows + Σ path length) — amortized over every delta epoch that follows.
func (s *Sim) buildIncCache(ep *Epoch) {
	inc := &s.inc
	nflows := len(inc.flows)
	nlinks := len(s.topo.Links)

	// Flow → path CSR, concatenating per-chunk buffers in chunk order (=
	// flow order).
	totalLinks := 0
	for _, clinks := range inc.linksByChunk {
		totalLinks += len(clinks)
	}
	if cap(inc.pathOff) < nflows+1 {
		inc.pathOff = make([]int32, nflows+1)
	}
	inc.pathOff = inc.pathOff[:nflows+1]
	if cap(inc.pathLinks) < totalLinks {
		inc.pathLinks = make([]topology.LinkID, totalLinks)
	}
	inc.pathLinks = inc.pathLinks[:totalLinks]
	inc.pathOff[0] = 0
	off := int32(0)
	fi := 0
	pos := 0
	for c, lens := range inc.lensByChunk {
		pos += copy(inc.pathLinks[pos:], inc.linksByChunk[c])
		for _, n := range lens {
			off += int32(n)
			fi++
			inc.pathOff[fi] = off
		}
	}

	// Link → flows CSR by counting sort: count, prefix, fill (the fill
	// advances linkOff in place, then one shift restores the offsets).
	// Filling in flow order keeps every row's flow indexes ascending, which
	// gatherAffected's merge order relies on.
	if cap(inc.linkOff) < nlinks+1 {
		inc.linkOff = make([]int32, nlinks+1)
	}
	inc.linkOff = inc.linkOff[:nlinks+1]
	clear(inc.linkOff)
	for _, l := range inc.pathLinks {
		inc.linkOff[l+1]++
	}
	for l := 0; l < nlinks; l++ {
		inc.linkOff[l+1] += inc.linkOff[l]
	}
	if cap(inc.linkFlows) < totalLinks {
		inc.linkFlows = make([]int32, totalLinks)
	}
	inc.linkFlows = inc.linkFlows[:totalLinks]
	for f := 0; f < nflows; f++ {
		for _, l := range inc.pathLinks[inc.pathOff[f]:inc.pathOff[f+1]] {
			inc.linkFlows[inc.linkOff[l]] = int32(f)
			inc.linkOff[l]++
		}
	}
	for l := nlinks; l > 0; l-- {
		inc.linkOff[l] = inc.linkOff[l-1]
	}
	inc.linkOff[0] = 0

	// Snapshot the epoch's outputs. The cached outcomes share Path and
	// DropsByLink storage with ep.Failed (read-only from here on); Traced is
	// per-copy state and is normalized in the cache.
	inc.failed = append(inc.failed[:0], ep.Failed...)
	for i := range inc.failed {
		inc.failed[i].Traced = true
	}
	inc.totalPackets = ep.TotalPackets
	inc.totalDrops = ep.TotalDrops

	// Fresh stamps: a rebuild after RescoreAll may find stale stamps at or
	// past any restarted round counter, so both arrays reset to zero and the
	// round restarts above them.
	if cap(inc.linkStamp) < nlinks {
		inc.linkStamp = make([]int32, nlinks)
	}
	inc.linkStamp = inc.linkStamp[:nlinks]
	clear(inc.linkStamp)
	if cap(inc.flowStamp) < nflows {
		inc.flowStamp = make([]int32, nflows)
	}
	inc.flowStamp = inc.flowStamp[:nflows]
	clear(inc.flowStamp)
	inc.dirty = inc.dirty[:0]
	inc.round = 1
	inc.valid = true

	// The per-chunk path records are in the CSRs now; holding them would pin
	// a second copy of every path (≈50 MB at datacenter scale) for the run.
	// Only a rebuild after RescoreAll writes them again.
	clear(inc.lensByChunk)
	clear(inc.linksByChunk)
}

// gatherAffected turns the dirty-link set into the sorted list of flow
// indexes to re-score: the union of the dirty links' link→flows rows,
// deduplicated by stamping each flow with the current round. The stamps
// stay set through the epoch — the merge uses them as the retirement
// membership test for cached outcomes.
func (s *Sim) gatherAffected() []int32 {
	inc := &s.inc
	aff := inc.affected[:0]
	for _, l := range inc.dirty {
		for _, fi := range inc.linkFlows[inc.linkOff[l]:inc.linkOff[l+1]] {
			if inc.flowStamp[fi] != inc.round {
				inc.flowStamp[fi] = inc.round
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
// outcomes into the cached epoch outputs — retire the affected flows' old
// outcomes (subtracting their drops from the carried total), keep every
// unaffected outcome, add the new ones. The merged failed list stays in
// flow-index order, so a delta epoch is bit-identical to re-scoring every
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
	// — stamped with this round — always retires, whether or not a new
	// outcome replaces it.
	old, merged := inc.failed, inc.spare[:0]
	i, j := 0, 0
	for i < len(old) || j < len(news) {
		if i < len(old) && (j >= len(news) || old[i].FlowID <= news[j].FlowID) {
			o := old[i]
			i++
			if inc.flowStamp[o.FlowID] == inc.round {
				inc.totalDrops -= o.Drops
				continue
			}
			merged = append(merged, o)
		} else {
			n := news[j]
			j++
			inc.totalDrops += n.Drops
			merged = append(merged, n)
		}
	}
	inc.failed, inc.spare = merged, old

	ep := &Epoch{
		FailedLinks:  s.failedSnapshot(),
		TotalFlows:   len(inc.flows),
		TotalPackets: inc.totalPackets,
		TotalDrops:   inc.totalDrops,
	}
	if len(merged) > 0 {
		ep.Failed = make([]FlowOutcome, len(merged))
		copy(ep.Failed, merged)
		ep.Reports = make([]vote.Report, 0, len(merged))
	}
	// Budget and reports are per-epoch overlays on the epoch's own copy;
	// the failed set is tiny relative to the flow count, so the sequential
	// resolution is cheap here.
	s.resolveBudget(ep)
	inc.round++
	return ep
}

// rescoreFlow re-scores one frozen flow from its stored path against the
// current link rates, drawing from the same private stream the full
// pipeline would, and returns its outcome and whether it lost packets. The
// outcome's Path aliases the stable flow→links CSR — no copy.
func (s *Sim) rescoreFlow(sh *epochShard, fi int64) (FlowOutcome, bool) {
	inc := &s.inc
	f := inc.flows[fi]
	if f.Packets <= 0 {
		return FlowOutcome{}, false
	}
	links := inc.pathLinks[inc.pathOff[fi]:inc.pathOff[fi+1]]
	var perLink [ecmp.MaxPathLinks]uint16
	drops := s.sampleFlowDrops(inc.epochSeed, fi, &sh.rng, links, f.Packets, &perLink)
	if drops == 0 {
		return FlowOutcome{}, false
	}
	out := FlowOutcome{
		FlowID:      fi,
		Flow:        f,
		Path:        links,
		Drops:       drops,
		DropsByLink: sh.arena.copyDrops(perLink[:len(links)]),
		Culprit:     culprit(links, perLink[:len(links)]),
		Traced:      true,
	}
	for _, l := range links {
		if s.isFailed[l] {
			out.CrossedFailure = true
			break
		}
	}
	return out, true
}

// Reference oracle: RescoreAll invalidates the delta cache, so the next
// RunEpoch re-scores every flow of the frozen workload through the full
// pipeline and rebuilds the cache. Results are bit-identical either way;
// delta epochs are tested against it. It is a no-op on non-incremental
// simulations.
func (s *Sim) RescoreAll() { s.inc.valid = false }
