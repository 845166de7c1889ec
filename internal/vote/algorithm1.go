package vote

import (
	"vigil/internal/ecmp"
	"vigil/internal/topology"
)

// Adjuster estimates, for the top-voted link lmax, the fraction of the
// failed flows through lmax that also traverse link k — the quantity
// Algorithm 1 subtracts from k's tally after blaming lmax.
type Adjuster interface {
	// Begin is called once per Algorithm 1 iteration with the newly blamed
	// link; Fraction is then queried for other links.
	Begin(lmax topology.LinkID)
	// Fraction returns the estimated P(k on path | lmax on path) for failed
	// flows, or 0 when no path can contain both.
	Fraction(k topology.LinkID) float64
}

// AnalyticAdjuster implements the paper's adjustment: assume ECMP spreads
// flows uniformly at random and derive the overlap fraction from the
// topology alone (§5.1). This is the production-faithful variant — the
// centralized agent needs only vote tallies, not retained paths.
type AnalyticAdjuster struct {
	Topo *topology.Topology
	calc *ecmp.CondCalc
}

// Begin implements Adjuster.
func (a *AnalyticAdjuster) Begin(lmax topology.LinkID) {
	a.calc = ecmp.NewCondCalc(a.Topo, lmax)
}

// Fraction implements Adjuster.
func (a *AnalyticAdjuster) Fraction(k topology.LinkID) float64 {
	return a.calc.Cond(k)
}

// ObservedAdjuster computes the overlap fraction exactly from the epoch's
// observed failed-flow paths. It is the ablation counterpart of
// AnalyticAdjuster (DESIGN.md, abl-adjust).
//
// The fractions are pushed, not pulled: Begin walks the blamed link's
// reports once and counts, per link those reports touch, the path entries
// shared with the blamed link. FindProblemLinks then discounts exactly the
// counted links, so a blame costs the blamed link's path entries rather
// than one query per voted link.
type ObservedAdjuster struct {
	ix   *index
	nmax int // path entries on the current lmax
}

// NewObservedAdjuster indexes the epoch's reports, which must stay
// unmodified while the adjuster is in use.
func NewObservedAdjuster(reports []Report) *ObservedAdjuster {
	return &ObservedAdjuster{ix: newIndex(reports)}
}

// Begin implements Adjuster.
func (o *ObservedAdjuster) Begin(lmax topology.LinkID) {
	ix := o.ix
	for _, s := range ix.touched {
		ix.shared[s] = 0
	}
	ix.touched, o.nmax = ix.touched[:0], 0
	s := ix.slot(lmax)
	if s < 0 {
		return
	}
	on := ix.lrep[ix.lstart[s]:ix.lend[s]]
	o.nmax = len(on)
	prev := int32(-1)
	for _, r := range on {
		if r == prev {
			continue // lmax repeats within r's path; r's entries count once
		}
		prev = r
		for _, k := range ix.eslot[ix.estart[r]:ix.eend[r]] {
			if ix.shared[k] == 0 {
				ix.touched = append(ix.touched, k)
			}
			ix.shared[k]++
		}
	}
}

// Fraction implements Adjuster.
func (o *ObservedAdjuster) Fraction(k topology.LinkID) float64 {
	if s := o.ix.slot(k); s >= 0 {
		return o.fraction(int32(s))
	}
	return 0
}

// fraction is Fraction by slot; zero unless the slot is in ix.touched.
func (o *ObservedAdjuster) fraction(s int32) float64 {
	if o.nmax == 0 {
		return 0
	}
	return float64(o.ix.shared[s]) / float64(o.nmax)
}

// NoAdjuster disables the adjustment step (ablation baseline).
type NoAdjuster struct{}

// Begin implements Adjuster.
func (NoAdjuster) Begin(topology.LinkID) {}

// Fraction implements Adjuster.
func (NoAdjuster) Fraction(topology.LinkID) float64 { return 0 }

// DetectOptions configures Algorithm 1, and Localize's carry: options that
// Streaming returned carry one epoch's analysis to the next call that is
// passed them (or a copy of them); others carry nothing.
type DetectOptions struct {
	// ThresholdFrac stops the loop once the top remaining tally falls below
	// this fraction of the total outstanding votes. The paper uses 1%,
	// chosen by a precision/recall sweep (§5.1).
	ThresholdFrac float64
	// Adjuster estimates vote spill-over; nil means no adjustment.
	Adjuster Adjuster

	stream chan *carry // the stream's carry slot, holding the carry when no call has it
}

// Streaming returns opts with a carry of its own, for one producer whose
// consecutive epochs share most of their reports: each Localize call passed
// the result patches the analysis the last one left where its reports
// differ, instead of building it afresh. The outputs are a fresh build's
// either way. A call that finds the carry in use by another goroutine
// builds fresh and records nothing.
func Streaming(opts DetectOptions) DetectOptions {
	opts.stream = make(chan *carry, 1)
	opts.stream <- &carry{ix: new(index)}
	return opts
}

// detectScratch is FindProblemLinks' working set, all per tally slot.
type detectScratch struct {
	votes   []float64 // the tally's votes, discounted as links are blamed
	inB     []bool
	toTally []int32 // observed-adjuster slot → ranked slot
}

var detectFree = newFreeList[detectScratch]()

// FindProblemLinks is Algorithm 1: iteratively pick the most-voted link,
// blame it, discount the votes its failed flows spilled onto other links,
// and repeat while the top link holds at least ThresholdFrac of the
// outstanding votes. Returns the blamed set B in blame order.
func FindProblemLinks(t *Tally, opts DetectOptions) []topology.LinkID {
	rs := rankFree.get()
	defer rankFree.put(rs)
	return findProblemLinks(t.links, t.units, t.votes, rs.rank(t.units), nil, opts)
}

// findProblemLinks is Algorithm 1 over slot arrays: links with their
// units and votes, and the slots in ranking order. own is the index the
// slots are, if any: an observed adjuster over it counts in these very
// slots, so it needs no slot map. Without an own the slots are in LinkID
// order; with one, its byLink gives that order.
func findProblemLinks(links []topology.LinkID, units []int64, tally []float64, order []int32, own *index, opts DetectOptions) []topology.LinkID {
	if opts.ThresholdFrac <= 0 {
		opts.ThresholdFrac = 0.01
	}
	adj := opts.Adjuster
	if adj == nil {
		adj = NoAdjuster{}
	}
	sc := detectFree.get()
	defer detectFree.put(sc)
	sc.votes = append(sc.votes[:0], tally...)
	sc.inB = resize(sc.inB, len(links))
	clear(sc.inB)
	votes, inB := sc.votes, sc.inB
	// The 1% cutoff is anchored to the epoch's initial vote total. Anchoring
	// to the running (adjusted) total instead lets the base collapse after
	// each subtraction, so adjustment residuals cascade into false
	// positives; the initial total is the stable reading of line 6 of
	// Algorithm 1. It is exact, in units.
	var total int64
	for _, u := range units {
		total += u
	}
	cutoff := opts.ThresholdFrac * (float64(total) / voteUnits)
	discount := func(s int, vmax, f float64) {
		if votes[s] -= vmax * f; votes[s] < 0 {
			votes[s] = 0
		}
	}
	obs, _ := adj.(*ObservedAdjuster)
	var toTally []int32 // obs's slots → these; nil while they are the same
	if obs != nil && obs.ix != own {
		var byLink []int32 // own's slots in LinkID order, when there is an own
		if own != nil {
			byLink = own.byLink
		}
		sc.toTally = obs.ix.slotsIn(links, byLink, sc.toTally)
		toTally = sc.toTally
	}
	var b []topology.LinkID
	for {
		// The argmax, equal votes going to the lower LinkID. Votes only
		// fall, so the walk down the original ranking ends at the first
		// slot that can neither reach the cutoff nor beat or tie the best
		// so far: its original vote is lower, or as high with a higher
		// LinkID (a ranking group is in ascending LinkID order).
		lmax, vmax := -1, 0.0
		for _, s := range order {
			if o := tally[s]; o < cutoff || o < vmax || o == vmax && (lmax < 0 || links[s] > links[lmax]) {
				break
			}
			if v := votes[s]; !inB[s] && (v > vmax || v == vmax && v > 0 && links[s] < links[lmax]) {
				lmax, vmax = int(s), v
			}
		}
		if lmax < 0 || vmax < cutoff {
			return b
		}
		inB[lmax] = true
		b = append(b, links[lmax])
		adj.Begin(links[lmax])
		if obs != nil {
			// Only the links sharing a report with lmax have a fraction.
			for _, os := range obs.ix.touched {
				s := os
				if toTally != nil {
					s = toTally[os]
				}
				if s >= 0 && !inB[s] {
					discount(int(s), vmax, obs.fraction(os))
				}
			}
			continue
		}
		for s, l := range links {
			if inB[s] || votes[s] == 0 {
				continue
			}
			if f := adj.Fraction(l); f > 0 {
				discount(s, vmax, f)
			}
		}
	}
}

// Localize runs the whole settle-time pipeline over one index of the
// epoch's reports: the ranking of the tally, Algorithm 1's set B, and a
// verdict per report. The ranking is computed once; Algorithm 1 walks it.
// Because the reports themselves are at hand, a nil opts.Adjuster means the
// exact observed-path adjustment here, not the topology-based estimate that
// FindProblemLinks falls back to.
//
// With options from Streaming, the index and ranking are carried to the
// stream's next call, which patches them where its reports differ
// (carry.go). Any other call, and one that finds its stream's carry in use
// by another goroutine, builds fresh on a pooled carry that records
// nothing. Either way the outputs are the same.
func Localize(reports []Report, opts DetectOptions) ([]LinkVotes, []topology.LinkID, []Verdict) {
	c := takeCarry(opts.stream)
	defer c.release(opts.stream)
	c.load(reports)
	phaseRank.Begin()
	ranking := c.ranking()
	phaseRank.End()
	ix := c.ix
	if opts.Adjuster == nil {
		opts.Adjuster = &ObservedAdjuster{ix: ix}
	}
	phaseDetect.Begin()
	detected := findProblemLinks(ix.links, ix.units, ix.votes, c.order, ix, opts)
	phaseDetect.End()
	phaseClassify.Begin()
	verdicts := c.classify(detected)
	phaseClassify.End()
	return ranking, detected, verdicts
}

// Verdict is 007's per-flow conclusion.
type Verdict struct {
	FlowID int64
	// Link is the blamed link (the most likely cause of this flow's drops).
	Link topology.LinkID
	// Noise marks flows whose drops 007 attributes to background noise:
	// no detected problem link lies on the flow's path (§6: "noise drops").
	Noise bool
}

// ClassifyFlows produces verdicts for every report. Blame follows §5.1:
// the ranking names the most likely cause of each flow's drops, so the
// verdict is the highest-voted link on the flow's path. The Noise flag
// marks flows whose path avoids every detected problem link — drops 007
// attributes to background noise rather than a failure.
func ClassifyFlows(t *Tally, detected []topology.LinkID, reports []Report) []Verdict {
	ix := newIndex(reports)
	defer ix.release()
	return ix.classify(ix.votesOf(t), detected)
}
