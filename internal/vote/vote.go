// Package vote implements 007's core contribution: the voting-based fault
// localization scheme of §5.
//
// Every flow that suffers a retransmission casts a vote of 1/h on each of
// the h links of its path (good flows vote 0 and are never traced). Votes
// are tallied per 30-second epoch; the tally ranks links by likely drop
// rate (Theorem 2), names the most likely cause of each individual flow's
// drops, and — via Algorithm 1 — yields the set of problematic links.
//
// Only failed flows vote, so everything here is sparse: an epoch's reports
// are indexed once over the links they touch (index.go), and the tally,
// Algorithm 1 and classification all work on that index's slots. Cost and
// memory follow the epoch's path entries, never the fabric's link count or
// the magnitude of a link id.
package vote

import (
	"cmp"
	"math"
	"slices"

	"vigil/internal/topology"
)

// Report is what one host's 007 agent tells the analysis agent about one
// flow that retransmitted: the flow, its discovered path, and how many
// retransmissions it saw.
type Report struct {
	FlowID   int64
	Src, Dst topology.HostID
	Path     []topology.LinkID
	Retx     int
	// Partial marks a traceroute that did not reach the destination (the
	// probe itself was lost); Path then holds the reached prefix.
	Partial bool
	// Epoch and Seq give the report a stable identity under streaming
	// ingest: (Src, Epoch, Seq) names this report uniquely across the run.
	// Every batch producer assigns Seq densely per agent per epoch — an
	// agent's k reports in epoch e carry sequences 0..k-1 in emission order
	// — which is the invariant the ingest collector's gap detection,
	// duplicate suppression and loss accounting are built on.
	Epoch int32
	Seq   int32
}

// ReportID is a report's stable identity on the agent→collector path.
type ReportID struct {
	Agent topology.HostID
	Epoch int32
	Seq   int32
}

// ID returns the report's identity. The reporting agent is the source host:
// 007 agents report the flows of their own host.
func (r Report) ID() ReportID { return ReportID{Agent: r.Src, Epoch: r.Epoch, Seq: r.Seq} }

// CanonicalLess orders reports by identity: agent, then epoch, then
// sequence. Within one epoch this is a total order (identities are unique),
// independent of arrival interleaving — the order settled epochs are
// analyzed in, and the order batch engines emit in.
func CanonicalLess(a, b Report) bool { return compareCanonical(a, b) < 0 }

func compareCanonical(a, b Report) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Seq, b.Seq))
}

// SortCanonical sorts reports into canonical identity order in place. It is
// a no-op (single ordered scan) when the input is already canonical — the
// common case for batch epochs, whose producers emit agents in ascending
// order with dense sequences.
func SortCanonical(reports []Report) {
	for i := 1; i < len(reports); i++ {
		if CanonicalLess(reports[i], reports[i-1]) {
			slices.SortStableFunc(reports, compareCanonical)
			return
		}
	}
}

// LinkVotes pairs a link with its tally.
type LinkVotes struct {
	Link  topology.LinkID
	Votes float64
}

// Tally accumulates votes over one epoch. It holds only the links that
// were voted on, ascending by LinkID with their tallies alongside, so its
// size follows the votes cast. A Tally is not safe for concurrent use.
type Tally struct {
	links []topology.LinkID // voted links, ascending
	votes []float64         // votes[i] is links[i]'s tally, always > 0
	flows int
	total float64
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{} }

// Add casts r's votes: 1/h per path link, h = len(Path). Reports with empty
// paths (a traceroute that produced nothing) are counted but vote nowhere.
func (t *Tally) Add(r Report) {
	t.flows++
	h := len(r.Path)
	if h == 0 {
		return
	}
	v := 1.0 / float64(h)
	for _, l := range r.Path {
		if l < 0 {
			continue // NoLink placeholders vote nowhere
		}
		i, ok := slices.BinarySearch(t.links, l)
		if !ok {
			t.links = slices.Insert(t.links, i, l)
			t.votes = slices.Insert(t.votes, i, 0)
		}
		t.votes[i] += v
	}
	t.total += 1
}

// AddAll casts votes for each report of a batch. A link's batch votes are
// summed per 2048 reports (sumChunkShift) and the chunk sums folded in
// report order, so a larger batch can differ from repeated Add by
// reassociation at the 1-ulp level.
func (t *Tally) AddAll(rs []Report) {
	ix := newIndex(rs)
	t.absorb(ix)
	ix.release()
}

// absorb folds an indexed batch into t.
func (t *Tally) absorb(ix *index) {
	t.flows += len(ix.reports)
	t.total += float64(ix.voting)
	if len(t.links) == 0 {
		t.links, t.votes = slices.Clone(ix.links), slices.Clone(ix.votes)
		return
	}
	// Two-way merge of the ascending link lists.
	a, av, b, bv := t.links, t.votes, ix.links, ix.votes
	links := make([]topology.LinkID, 0, len(a)+len(b))
	votes := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			links, votes = append(links, a[0]), append(votes, av[0])
			a, av = a[1:], av[1:]
		case len(a) == 0 || b[0] < a[0]:
			links, votes = append(links, b[0]), append(votes, bv[0])
			b, bv = b[1:], bv[1:]
		default:
			links, votes = append(links, a[0]), append(votes, av[0]+bv[0])
			a, av, b, bv = a[1:], av[1:], b[1:], bv[1:]
		}
	}
	t.links, t.votes = links, votes
}

// Votes returns link l's tally.
func (t *Tally) Votes(l topology.LinkID) float64 {
	if i, ok := slices.BinarySearch(t.links, l); ok {
		return t.votes[i]
	}
	return 0
}

// Total returns the sum of all votes cast. Each fully traced failed flow
// contributes exactly 1 (h links × 1/h each).
func (t *Tally) Total() float64 { return t.total }

// Flows returns the number of reports received.
func (t *Tally) Flows() int { return t.flows }

// Len returns the number of links with non-zero tallies.
func (t *Tally) Len() int { return len(t.links) }

// rankFree keeps Ranking's second buffer between calls.
var rankFree = newFreeList[[]LinkVotes]()

// Ranking returns links sorted by descending votes; ties break toward the
// lower link ID so results are deterministic.
//
// It is a stable LSD radix sort of the slots, which are already in LinkID
// order, on the complemented bits of their votes: a vote is positive, so
// its IEEE-754 bit pattern orders as the number does, and a stable sort
// leaves equal votes in LinkID order. A byte that is the same in every vote
// costs no pass (DESIGN.md, "Analysis cost model", has the digit width).
func (t *Tally) Ranking() []LinkVotes {
	n := len(t.links)
	out := make([]LinkVotes, n)
	if n == 0 {
		return out
	}
	var hist [8][256]int32
	for _, v := range t.votes {
		k := ^math.Float64bits(v)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	k0 := ^math.Float64bits(t.votes[0])
	tmp := rankFree.get()
	defer rankFree.put(tmp)
	*tmp = resize(*tmp, n)
	src, dst := out, *tmp
	for i, l := range t.links {
		src[i] = LinkVotes{Link: l, Votes: t.votes[i]}
	}
	for d := range hist {
		h, shift := &hist[d], 8*d
		if int(h[byte(k0>>shift)]) == n {
			continue
		}
		var at int32
		for b, c := range h {
			h[b], at = at, at+c
		}
		// Most of an epoch's links tie (one failed flow's 1/h each), so the
		// cursor of the bucket being filled stays in a register across a run
		// of equal digits instead of going through h every time.
		run, cur := byte(0), h[0]
		for _, e := range src {
			b := byte(^math.Float64bits(e.Votes) >> shift)
			if b != run {
				h[run], run, cur = cur, b, h[b]
			}
			dst[cur] = e
			cur++
		}
		src, dst = dst, src
	}
	if &src[0] != &out[0] {
		copy(out, src) // an odd number of passes ends in the pooled buffer
	}
	return out
}

// BlameOnPath returns the most-voted link of path, the most likely cause of
// that flow's drops (§5.2: links ranked higher have higher drop rates).
// ok is false when no path link received any vote.
func (t *Tally) BlameOnPath(path []topology.LinkID) (blame topology.LinkID, ok bool) {
	best := topology.NoLink
	bestV := 0.0
	for _, l := range path {
		if v := t.Votes(l); v > bestV || (v == bestV && v > 0 && l < best) {
			best, bestV = l, v
		}
	}
	return best, best != topology.NoLink
}
