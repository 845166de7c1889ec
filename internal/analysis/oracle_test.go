package analysis_test

import (
	"sort"

	"vigil/internal/analysis"
	"vigil/internal/ecmp"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// This file is the reference the sparse pipeline is held to: the dense,
// LinkID-indexed implementation that vote and analysis shipped before the
// per-epoch index (Algorithm 1 rescanning every link and pulling Fraction
// through maps). It is memory-hungry by design — every vector is sized by
// the highest link id — so it only sees ids a topology hands out.
//
// It tallies as vote does, in whole units of 1/oracleUnits of a vote; it
// summed floats in 2,048-report chunks before votes were exact, and
// TestExactVotesAreTheFloatSumsRounded holds the two readings to each
// other. A report whose path is empty or longer than ecmp.MaxPathLinks
// votes nowhere and is noise.

const oracleUnits = 60

// castsVotes reports whether r casts votes: its path is one an agent can
// produce.
func castsVotes(r vote.Report) bool { return len(r.Path) > 0 && len(r.Path) <= ecmp.MaxPathLinks }

type denseTally struct {
	units []int64 // dense by LinkID
	voted int
	flows int
}

func (t *denseTally) add(r vote.Report) {
	t.flows++
	if !castsVotes(r) {
		return
	}
	u := oracleUnits / int64(len(r.Path))
	for _, l := range r.Path {
		if l < 0 {
			continue
		}
		if need := int(l) + 1; need > len(t.units) {
			t.units = append(t.units, make([]int64, need-len(t.units))...)
		}
		if t.units[l] == 0 {
			t.voted++
		}
		t.units[l] += u
	}
}

func (t *denseTally) at(l topology.LinkID) float64 {
	if l < 0 || int(l) >= len(t.units) {
		return 0
	}
	return float64(t.units[l]) / oracleUnits
}

func (t *denseTally) ranking() []vote.LinkVotes {
	out := make([]vote.LinkVotes, 0, t.voted)
	for l, u := range t.units {
		if u > 0 {
			out = append(out, vote.LinkVotes{Link: topology.LinkID(l), Votes: t.at(topology.LinkID(l))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Votes != out[j].Votes {
			return out[i].Votes > out[j].Votes
		}
		return out[i].Link < out[j].Link
	})
	return out
}

func (t *denseTally) blameOnPath(path []topology.LinkID) (topology.LinkID, bool) {
	best := topology.NoLink
	bestV := 0.0
	for _, l := range path {
		v := t.at(l)
		if v > bestV || (v == bestV && v > 0 && (best == topology.NoLink || l < best)) {
			best, bestV = l, v
		}
	}
	return best, best != topology.NoLink
}

// denseObserved is the pull-form observed adjuster: link → report indexes,
// intersected per query.
type denseObserved struct {
	byLink map[topology.LinkID][]int32
	nmax   int
	onMax  map[int32]bool
}

func newDenseObserved(reports []vote.Report) *denseObserved {
	o := &denseObserved{byLink: make(map[topology.LinkID][]int32)}
	for i, r := range reports {
		if !castsVotes(r) {
			continue
		}
		for _, l := range r.Path {
			o.byLink[l] = append(o.byLink[l], int32(i))
		}
	}
	return o
}

func (o *denseObserved) Begin(lmax topology.LinkID) {
	idx := o.byLink[lmax]
	o.nmax = len(idx)
	o.onMax = make(map[int32]bool, len(idx))
	for _, i := range idx {
		o.onMax[i] = true
	}
}

func (o *denseObserved) Fraction(k topology.LinkID) float64 {
	if o.nmax == 0 {
		return 0
	}
	shared := 0
	for _, i := range o.byLink[k] {
		if o.onMax[i] {
			shared++
		}
	}
	return float64(shared) / float64(o.nmax)
}

func denseFindProblemLinks(t *denseTally, opts vote.DetectOptions) []topology.LinkID {
	if opts.ThresholdFrac <= 0 {
		opts.ThresholdFrac = 0.01
	}
	adj := opts.Adjuster
	votes := make([]float64, len(t.units))
	var total int64
	for l, u := range t.units {
		votes[l], total = t.at(topology.LinkID(l)), total+u
	}
	cutoff := opts.ThresholdFrac * (float64(total) / oracleUnits)
	inB := make([]bool, len(votes))
	var b []topology.LinkID
	for {
		lmax := topology.NoLink
		vmax := 0.0
		for l, v := range votes {
			if inB[l] || v <= 0 {
				continue
			}
			if v > vmax {
				lmax, vmax = topology.LinkID(l), v
			}
		}
		if lmax == topology.NoLink || total <= 0 || vmax < cutoff {
			return b
		}
		inB[lmax] = true
		b = append(b, lmax)
		adj.Begin(lmax)
		for l := range votes {
			if inB[l] || votes[l] == 0 {
				continue
			}
			if f := adj.Fraction(topology.LinkID(l)); f > 0 {
				votes[l] -= vmax * f
				if votes[l] < 0 {
					votes[l] = 0
				}
			}
		}
	}
}

// denseResult is the oracle's analysis.Result.
type denseResult struct {
	tally    *denseTally
	ranking  []vote.LinkVotes
	detected []topology.LinkID
	verdicts []vote.Verdict
}

// denseAnalyze is the old analysis.Analyze. A nil adjuster means the
// observed one, as there.
func denseAnalyze(reports []vote.Report, opts analysis.Options) denseResult {
	t := &denseTally{}
	for _, r := range reports {
		t.add(r)
	}
	if opts.Detect.Adjuster == nil {
		opts.Detect.Adjuster = newDenseObserved(reports)
	}
	detected := denseFindProblemLinks(t, opts.Detect)

	inB := make(map[topology.LinkID]bool, len(detected))
	for _, l := range detected {
		inB[l] = true
	}
	verdicts := make([]vote.Verdict, len(reports))
	for i, r := range reports {
		v := vote.Verdict{FlowID: r.FlowID, Link: topology.NoLink, Noise: true}
		if !castsVotes(r) {
			verdicts[i] = v
			continue
		}
		if blame, ok := t.blameOnPath(r.Path); ok {
			v.Link = blame
		}
		for _, l := range r.Path {
			if inB[l] {
				v.Noise = false
				break
			}
		}
		verdicts[i] = v
	}
	return denseResult{tally: t, ranking: t.ranking(), detected: detected, verdicts: verdicts}
}
