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
// are indexed once over the links they touch (index.go), and the ranking,
// Algorithm 1 and classification all work on that index's slots. Cost and
// memory follow the epoch's path entries, never the fabric's link count or
// the magnitude of a link id.
package vote

import (
	"cmp"
	"math/bits"
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

// CanonicalLess orders reports by identity: agent, then epoch, then
// sequence. Within one epoch this is a total order (identities are unique),
// independent of arrival interleaving — the order settled epochs are
// analyzed in, and the order batch engines emit in.
func CanonicalLess(a, b Report) bool { return compareCanonical(&a, &b) < 0 }

// compareCanonical compares in place: a Report is 64 bytes.
func compareCanonical(a, b *Report) int {
	if a.Src != b.Src {
		return cmp.Compare(a.Src, b.Src)
	}
	if a.Epoch != b.Epoch {
		return cmp.Compare(a.Epoch, b.Epoch)
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// SortCanonical sorts reports into canonical identity order in place. It is
// a no-op (single ordered scan) when the input is already canonical — the
// common case for batch epochs, whose producers emit agents in ascending
// order with dense sequences.
func SortCanonical(reports []Report) {
	for i := 1; i < len(reports); i++ {
		if compareCanonical(&reports[i], &reports[i-1]) < 0 {
			slices.SortStableFunc(reports, func(a, b Report) int { return compareCanonical(&a, &b) })
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
	units []int64           // units[i] is links[i]'s tally in units, always > 0
	votes []float64         // units[i] / voteUnits
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{} }

// AddAll casts each report's votes: 1/h per path link, h = len(Path).
// Reports with empty paths (a traceroute that produced nothing) or paths
// longer than ecmp.MaxPathLinks vote nowhere, and neither do NoLink
// placeholders. Votes are counted in whole units, so a batch split any
// way tallies exactly as the whole.
func (t *Tally) AddAll(rs []Report) {
	ix := newIndex(rs)
	defer ix.release()
	if len(t.links) == 0 {
		t.links, t.units, t.votes = slices.Clone(ix.links), slices.Clone(ix.units), slices.Clone(ix.votes)
		return
	}
	// Two-way merge of the ascending link lists.
	a, au, b, bu := t.links, t.units, ix.links, ix.units
	links := make([]topology.LinkID, 0, len(a)+len(b))
	units := make([]int64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			links, units = append(links, a[0]), append(units, au[0])
			a, au = a[1:], au[1:]
		case len(a) == 0 || b[0] < a[0]:
			links, units = append(links, b[0]), append(units, bu[0])
			b, bu = b[1:], bu[1:]
		default:
			links, units = append(links, a[0]), append(units, au[0]+bu[0])
			a, au, b, bu = a[1:], au[1:], b[1:], bu[1:]
		}
	}
	t.links, t.units, t.votes = links, units, make([]float64, len(units))
	for i, u := range units {
		t.votes[i] = voteOf(u)
	}
}

// Ranking returns links sorted by descending votes; ties break toward the
// lower link ID so results are deterministic.
func (t *Tally) Ranking() []LinkVotes {
	rs := rankFree.get()
	defer rankFree.put(rs)
	return linkVotes(t.links, t.votes, rs.rank(t.units))
}

// linkVotes lists the slots of links and their votes in the given order.
func linkVotes(links []topology.LinkID, votes []float64, order []int32) []LinkVotes {
	out := make([]LinkVotes, len(order))
	for i, s := range order {
		out[i] = LinkVotes{Link: links[s], Votes: votes[s]}
	}
	return out
}

// rankScratch is the ranking's working set, kept between calls.
type rankScratch struct {
	table       []int32  // open-addressed by key: group + 1, 0 when empty
	keys        []uint64 // per group: its units, complemented
	count       []int32  // per group: its slot count, then its next position
	group       []int32  // per slot: its vote's group
	sorted, tmp []uint64 // the keys ascending, and the sort's other buffer
	order       []int32  // slots in ranking order
}

var rankFree = newFreeList[rankScratch]()

// minRankTable is the group table's smallest size; it holds up to half its
// size in groups before it doubles.
const minRankTable = 128

// rank returns the slots of units in ranking order — descending units,
// equal units in ascending slot — in memory rs owns until its next call.
//
// An epoch's tally holds few distinct votes (DESIGN.md, "Analysis cost
// model"), so the slots are grouped by units in one pass over an
// open-addressed table keyed by the complemented units, the distinct keys
// are radix-sorted, and one stable scatter lays the slots out group by
// group. Slots are visited in ascending order, so equal units stay in it.
func (rs *rankScratch) rank(units []int64) []int32 {
	m := len(units)
	order := resize(rs.order, m)
	rs.order = order
	if m == 0 {
		return order
	}
	// Presized for as many groups as the previous call found.
	size := minRankTable
	for size < 2*min(len(rs.keys), m) {
		size <<= 1
	}
	table := resize(rs.table, size)
	clear(table)
	keys, count := rs.keys[:0], rs.count[:0]
	group := resize(rs.group, m)
	// Neighbouring slots often hold the same vote: the last group found is
	// tried before the table.
	lastK, lastG := uint64(0), int32(-1)
	for s, u := range units {
		if k := ^uint64(u); lastG < 0 || k != lastK {
			h := probe(table, keys, k)
			if table[h] != 0 {
				lastG = table[h] - 1
			} else {
				lastG = int32(len(keys))
				table[h] = lastG + 1
				keys, count = append(keys, k), append(count, 0)
				if 2*len(keys) > len(table) {
					table = regroup(table, keys)
				}
			}
			lastK = k
		}
		group[s] = lastG
		count[lastG]++
	}
	sorted, tmp := sortKeys(append(rs.sorted[:0], keys...), resize(rs.tmp, len(keys)))
	rs.table, rs.keys, rs.group, rs.count, rs.sorted, rs.tmp = table, keys, group, count, sorted, tmp

	// Each group's first position, then the slots scattered in slot order.
	var at int32
	for _, k := range sorted {
		g := table[probe(table, keys, k)] - 1
		count[g], at = at, at+count[g]
	}
	for s, g := range group {
		order[count[g]] = int32(s)
		count[g]++
	}
	return order
}

// sortKeys sorts keys ascending with an LSD radix sort on byte digits, using
// tmp (of the same length) as the other buffer; a byte that is the same in
// every key costs no pass. It returns the sorted slice and the spare one.
func sortKeys(keys, tmp []uint64) (sorted, spare []uint64) {
	var hist [8][256]int32
	for _, k := range keys {
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	for d := range hist {
		h, shift := &hist[d], 8*d
		if int(h[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var at int32
		for b, c := range h {
			h[b], at = at, at+c
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[h[b]] = k
			h[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// probe returns key k's position in a power-of-two group table: where it
// is, or the empty position where it belongs. The search starts at a
// Fibonacci hash of k (the top bits of k times 2^64/φ).
func probe(table []int32, keys []uint64, k uint64) uint64 {
	mask := uint64(len(table) - 1)
	h := k * 0x9E3779B97F4A7C15 >> (64 - bits.Len64(mask))
	for table[h] != 0 && keys[table[h]-1] != k {
		h = (h + 1) & mask
	}
	return h
}

// regroup returns a group table twice the size of table holding every key.
func regroup(table []int32, keys []uint64) []int32 {
	table = make([]int32, 2*len(table))
	for g, k := range keys {
		table[probe(table, keys[:g], k)] = int32(g) + 1
	}
	return table
}
