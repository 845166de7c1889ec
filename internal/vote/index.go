package vote

import (
	"math/bits"
	"runtime"

	"vigil/internal/ecmp"
	"vigil/internal/topology"
)

// voteUnits is one report's vote in whole units: every path length up to
// ecmp.MaxPathLinks divides it, so a report casts voteUnits/h units on each
// of its h links and every tally is an exact integer. A link's vote is its
// units over voteUnits, one correctly rounded division, so equal tallies
// are equal votes whatever order the reports came in.
const voteUnits = 60

// voteOf is the vote of a tally of units.
func voteOf(units int64) float64 { return float64(units) / voteUnits }

// unitsPer is the units a report with path casts on each of its links, or
// 0 when it casts none: an empty path (a traceroute that produced nothing)
// or one longer than any ECMP path, which no agent can produce.
func unitsPer(path []topology.LinkID) int64 {
	if h := len(path); h > 0 && h <= ecmp.MaxPathLinks {
		return voteUnits / int64(h)
	}
	return 0
}

// index is one epoch's reports laid out for settle-time analysis. The links
// the reports touch are compacted to slots, ascending by LinkID, and the
// path entries — one per non-negative link of a report's path — are kept
// both ways: slot → reports through it, and report → slots on its path.
// A stream's carry (carry.go) edits its index in place, and there slots
// and reports are handles that keep their number while others come and
// go, in no order: byLink lists the slots in LinkID order. A row lists its
// reports in no particular order either, but a report repeated on a link
// has its entries next to each other, which ObservedAdjuster.Begin relies
// on to count the report once.
//
// Every buffer is sized by the number of path entries or touched links and
// is reused through indexFree; nothing is sized by the fabric or by the
// magnitude of a link id.
type index struct {
	reports []Report // borrowed from the caller until release

	// Per slot.
	links  []topology.LinkID // the slot's link, ascending
	units  []int64           // the link's tally over these reports, in units
	votes  []float64         // units / voteUnits, kept with them
	lstart []int32           // slot s's reports are lrep[lstart[s]:lend[s]]
	lend   []int32
	lrep   []int32 // report indexes, ascending when built fresh; a link
	// repeated within one path lists its report once per occurrence
	byLink []int32 // the slots in LinkID order

	// Per report.
	estart []int32 // report i's slots are eslot[estart[i]:eend[i]]
	eend   []int32
	eslot  []int32 // ascending by LinkID within a report, one per path entry

	// Build scratch.
	weight    []int64 // unitsPer per report
	cursor    []int32
	keys, tmp []uint64 // link<<32 | report, the radix sort's two buffers

	// Consumers' per-slot scratch: the observed adjuster's overlap counts
	// for the current Begin; classify's view of a tally and of B.
	shared  []int32
	touched []int32 // slots with shared > 0
	toTally []int32
	tvotes  []float64
	inB     []uint8
}

// freeList keeps spent scratch for the next caller: one entry per CPU,
// since no more callers than that run at once and the rest would only pin
// memory.
// It is not a sync.Pool because a pool's contents are per CPU and dropped
// by the garbage collector: a settle loop whose goroutine moves between
// CPUs, or that a few GC cycles pass over, would rebuild its scratch from
// nothing every so often, and an epoch's cost would depend on when.
type freeList[T any] chan *T

func newFreeList[T any]() freeList[T] { return make(chan *T, runtime.NumCPU()) }

func (f freeList[T]) get() *T {
	select {
	case x := <-f:
		return x
	default:
		return new(T)
	}
}

func (f freeList[T]) put(x *T) {
	select {
	case f <- x:
	default:
	}
}

var indexFree = newFreeList[index]()

// newIndex indexes reports. The caller must not modify reports until it has
// called release, or for as long as the index is reachable if it never does.
func newIndex(reports []Report) *index {
	ix := indexFree.get()
	ix.build(reports)
	return ix
}

// release returns the index's buffers for reuse; ix must not be used after.
func (ix *index) release() {
	ix.reports = nil
	indexFree.put(ix)
}

// resize returns s with length n, reallocating only when it has to. The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (ix *index) build(reports []Report) {
	n := len(reports)
	ix.reports = reports
	ix.estart = resize(ix.estart, n+1)
	ix.weight = resize(ix.weight, n)
	keys := ix.keys[:0]
	var maxLink topology.LinkID
	for i := range reports {
		ix.estart[i] = int32(len(keys))
		path := reports[i].Path
		if ix.weight[i] = unitsPer(path); ix.weight[i] == 0 {
			continue
		}
		for _, l := range path {
			if l >= 0 { // NoLink placeholders vote nowhere
				keys = append(keys, uint64(l)<<32|uint64(i))
				maxLink = max(maxLink, l)
			}
		}
	}
	ix.estart[n] = int32(len(keys))
	keys, ix.tmp = sortByLink(keys, resize(ix.tmp, len(keys)), maxLink)
	ix.keys = keys

	ix.eslot = resize(ix.eslot, len(keys))
	ix.lrep = resize(ix.lrep, len(keys))
	ix.cursor = resize(ix.cursor, n)
	copy(ix.cursor, ix.estart)
	// A slot per distinct link, at most one per key.
	links, units, votes := resize(ix.links, len(keys)), resize(ix.units, len(keys)), resize(ix.votes, len(keys))
	lstart := resize(ix.lstart, len(keys)+1)
	m := 0
	for k := 0; k < len(keys); m++ {
		link := topology.LinkID(keys[k] >> 32)
		links[m], lstart[m] = link, int32(k)
		var sum int64
		for ; k < len(keys) && topology.LinkID(keys[k]>>32) == link; k++ {
			r := uint32(keys[k])
			sum += ix.weight[r]
			ix.lrep[k] = int32(r)
			ix.eslot[ix.cursor[r]] = int32(m)
			ix.cursor[r]++
		}
		units[m], votes[m] = sum, voteOf(sum)
	}
	lstart[m] = int32(len(keys))
	ix.links, ix.units, ix.votes, ix.lstart = links[:m], units[:m], votes[:m], lstart[:m+1]
	ix.lend, ix.eend = append(ix.lend[:0], ix.lstart[1:]...), append(ix.eend[:0], ix.estart[1:]...)
	ix.byLink = resize(ix.byLink, m)
	for s := range ix.byLink {
		ix.byLink[s] = int32(s)
	}

	ix.shared = resize(ix.shared, m)
	clear(ix.shared)
	ix.touched = ix.touched[:0]
}

// sortByLink stably sorts keys by their high 32 bits — the link id, at most
// maxLink — using tmp (of the same length) as the other buffer. It returns
// the sorted slice and the spare one. The sort is an LSD radix sort whose
// passes split maxLink's bits evenly into digits of at most 13 bits: one
// pass for ids below 2^13 (the §6 fabric), two below 2^26 (the datacenter
// one), three above.
func sortByLink(keys, tmp []uint64, maxLink topology.LinkID) (sorted, spare []uint64) {
	const maxDigitBits = 13
	width := bits.Len32(uint32(maxLink))
	passes := (width + maxDigitBits - 1) / maxDigitBits
	if passes == 0 {
		return keys, tmp // every key names link 0
	}
	width = (width + passes - 1) / passes
	mask := uint64(1)<<width - 1
	var hist [1 << maxDigitBits]int32
	for d := range passes {
		h, shift := hist[:1<<width], 32+uint(d*width)
		if d > 0 {
			clear(h)
		}
		for _, k := range keys {
			h[k>>shift&mask]++
		}
		var at int32
		for b, c := range h {
			h[b], at = at, at+c
		}
		for _, k := range keys {
			b := k >> shift & mask
			tmp[h[b]] = k
			h[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// slot returns link l's slot, or -1 when no report touches l.
func (ix *index) slot(l topology.LinkID) int {
	if k := ix.linkAt(l); k < len(ix.byLink) && ix.links[ix.byLink[k]] == l {
		return int(ix.byLink[k])
	}
	return -1
}

// linkAt is the number of byLink's slots whose link is below l.
func (ix *index) linkAt(l topology.LinkID) int {
	lo, hi := 0, len(ix.byLink)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ix.links[ix.byLink[mid]] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slotsIn maps each of ix's slots, ascending by LinkID, to the slot of its
// link among links — listed in LinkID order by byLink, or ascending when
// byLink is nil — or -1 when absent, writing into buf.
func (ix *index) slotsIn(links []topology.LinkID, byLink []int32, buf []int32) []int32 {
	buf = resize(buf, len(ix.links))
	n, at := len(links), func(j int) int32 { return int32(j) }
	if byLink != nil {
		n, at = len(byLink), func(j int) int32 { return byLink[j] }
	}
	j := 0
	for s, l := range ix.links {
		for j < n && links[at(j)] < l {
			j++
		}
		if j < n && links[at(j)] == l {
			buf[s] = at(j)
		} else {
			buf[s] = -1
		}
	}
	return buf
}

// votesOf returns t's votes by the index's slots, zero where t has none.
func (ix *index) votesOf(t *Tally) []float64 {
	ix.toTally = ix.slotsIn(t.links, nil, ix.toTally)
	votes := resize(ix.tvotes, len(ix.links))
	for s, ts := range ix.toTally {
		votes[s] = 0
		if ts >= 0 {
			votes[s] = t.votes[ts]
		}
	}
	ix.tvotes = votes
	return votes
}

// classify issues the reports' verdicts given a tally's votes by the
// index's slots and Algorithm 1's set B.
func (ix *index) classify(votes []float64, detected []topology.LinkID) []Verdict {
	inB := resize(ix.inB, len(ix.links))
	clear(inB)
	ix.markB(inB, detected, 1)
	ix.inB = inB
	out := make([]Verdict, len(ix.reports))
	for i := range out {
		out[i] = ix.verdict(ix.reports[i].FlowID, int32(i), votes, inB)
	}
	return out
}

// markB sets bit in inB at the slot of each link of b; a link no report
// touches is on none of these paths.
func (ix *index) markB(inB []uint8, b []topology.LinkID, bit uint8) {
	for _, l := range b {
		if s := ix.slot(l); s >= 0 {
			inB[s] |= bit
		}
	}
}

// verdict is the verdict of flow, report i, given votes by slot and B as
// bit 1 of inB: the flow is blamed on the most-voted link of its path, and
// marked noise when its path avoids B.
func (ix *index) verdict(flow int64, i int32, votes []float64, inB []uint8) Verdict {
	v := Verdict{FlowID: flow, Link: topology.NoLink, Noise: true}
	// A report's slots ascend by LinkID, so the first of equally voted
	// links is the one with the lower LinkID.
	bestV := 0.0
	for _, s := range ix.eslot[ix.estart[i]:ix.eend[i]] {
		if votes[s] > bestV {
			v.Link, bestV = ix.links[s], votes[s]
		}
		if inB[s]&1 != 0 {
			v.Noise = false
		}
	}
	return v
}
