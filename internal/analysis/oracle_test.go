package analysis_test

import (
	"sort"

	"vigil/internal/analysis"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// This file is the reference the sparse pipeline is held to: the dense,
// LinkID-indexed implementation that vote and analysis shipped before the
// per-epoch index, kept as it was (fixed 2048-report chunks tallied apart
// and merged in chunk order, Algorithm 1 rescanning every link and pulling
// Fraction through maps). It is memory-hungry by design — every vector is
// sized by the highest link id — so it only sees ids a topology hands out.

const oracleChunk = 2048

type denseTally struct {
	votes []float64 // dense by LinkID
	voted int
	flows int
	total float64
}

func (t *denseTally) grow(l topology.LinkID) {
	if need := int(l) + 1; need > len(t.votes) {
		t.votes = append(t.votes, make([]float64, need-len(t.votes))...)
	}
}

func (t *denseTally) add(r vote.Report) {
	t.flows++
	h := len(r.Path)
	if h == 0 {
		return
	}
	v := 1.0 / float64(h)
	for _, l := range r.Path {
		if l < 0 {
			continue
		}
		t.grow(l)
		if t.votes[l] == 0 {
			t.voted++
		}
		t.votes[l] += v
	}
	t.total += 1
}

func (t *denseTally) merge(o *denseTally) {
	if n := len(o.votes); n > 0 {
		t.grow(topology.LinkID(n - 1))
	}
	for l, v := range o.votes {
		if v == 0 {
			continue
		}
		if t.votes[l] == 0 {
			t.voted++
		}
		t.votes[l] += v
	}
	t.flows += o.flows
	t.total += o.total
}

func (t *denseTally) at(l topology.LinkID) float64 {
	if l < 0 || int(l) >= len(t.votes) {
		return 0
	}
	return t.votes[l]
}

func (t *denseTally) ranking() []vote.LinkVotes {
	out := make([]vote.LinkVotes, 0, len(t.votes))
	for l, v := range t.votes {
		if v > 0 {
			out = append(out, vote.LinkVotes{Link: topology.LinkID(l), Votes: v})
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
	votes := append([]float64(nil), t.votes...)
	var total float64
	for _, v := range votes {
		total += v
	}
	cutoff := opts.ThresholdFrac * total
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

// denseAnalyze is the old analysis.Analyze, chunk for chunk. A nil adjuster
// means the observed one, as there.
func denseAnalyze(reports []vote.Report, opts analysis.Options) denseResult {
	t := &denseTally{}
	for lo := 0; lo < len(reports); lo += oracleChunk {
		part := &denseTally{}
		for _, r := range reports[lo:min(lo+oracleChunk, len(reports))] {
			part.add(r)
		}
		t.merge(part)
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
