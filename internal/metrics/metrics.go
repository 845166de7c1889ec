// Package metrics scores 007 and the optimization baselines against ground
// truth, using the paper's three measures (§6): per-flow accuracy, and
// precision/recall for Algorithm 1's detected link set.
package metrics

import (
	"vigil/internal/opt"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// FlowTruth is the ground truth for one failed flow.
type FlowTruth struct {
	Culprit topology.LinkID
	// CrossedFailure is true when the flow's path contained an injected
	// failure — the flows on which attribution accuracy is defined (§7.2).
	CrossedFailure bool
}

// FlowScore is the per-flow accuracy result.
type FlowScore struct {
	Considered int // failed flows that crossed an injected failure
	Correct    int // of those, blamed on their true culprit
	// NoiseErrors counts flows 007 classified as noise whose drops were in
	// fact caused by an injected failure ("marked noisy incorrectly").
	NoiseErrors int
}

// Accuracy returns Correct/Considered (1 when nothing was considered, so
// empty epochs do not read as failures).
func (s FlowScore) Accuracy() float64 {
	if s.Considered == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Considered)
}

// ScoreVerdicts scores 007's per-flow verdicts against ground truth.
// truth maps FlowID to FlowTruth; verdicts without truth entries are
// ignored (they correspond to flows that lost no packets). A verdict is
// correct when it blames the flow's true culprit; flows that crossed a
// failure but were flagged as noise drops additionally count as noise
// errors (the paper claims there are none).
func ScoreVerdicts(verdicts []vote.Verdict, truth map[int64]FlowTruth) FlowScore {
	var s FlowScore
	for _, v := range verdicts {
		tr, ok := truth[v.FlowID]
		if !ok || !tr.CrossedFailure {
			continue
		}
		s.Considered++
		if v.Noise {
			s.NoiseErrors++
		}
		if v.Link == tr.Culprit {
			s.Correct++
		}
	}
	return s
}

// ScoreBlamer scores the integer program's per-flow blame over the same flows.
func ScoreBlamer(b opt.IntegerSolution, reports []vote.Report, truth map[int64]FlowTruth) FlowScore {
	var s FlowScore
	for _, r := range reports {
		tr, ok := truth[r.FlowID]
		if !ok || !tr.CrossedFailure {
			continue
		}
		s.Considered++
		blame, ok := b.BlameOnPath(r.Path)
		if !ok {
			s.NoiseErrors++
			continue
		}
		if blame == tr.Culprit {
			s.Correct++
		}
	}
	return s
}

// Detection holds precision and recall of a predicted failed-link set.
type Detection struct {
	Precision float64 // predicted links that really failed
	Recall    float64 // real failures that were predicted
	TruePos   int
	FalsePos  int
	FalseNeg  int
}

// ScoreDetection compares a predicted link set to the injected failures.
// An empty prediction has precision 1 (no false positives) and recall 0
// when failures exist.
func ScoreDetection(predicted, actual []topology.LinkID) Detection {
	pset := make(map[topology.LinkID]bool, len(predicted))
	for _, l := range predicted {
		pset[l] = true
	}
	aset := make(map[topology.LinkID]bool, len(actual))
	for _, l := range actual {
		aset[l] = true
	}
	var d Detection
	for l := range pset {
		if aset[l] {
			d.TruePos++
		} else {
			d.FalsePos++
		}
	}
	for l := range aset {
		if !pset[l] {
			d.FalseNeg++
		}
	}
	if d.TruePos+d.FalsePos == 0 {
		d.Precision = 1
	} else {
		d.Precision = float64(d.TruePos) / float64(d.TruePos+d.FalsePos)
	}
	if d.TruePos+d.FalseNeg == 0 {
		d.Recall = 1
	} else {
		d.Recall = float64(d.TruePos) / float64(d.TruePos+d.FalseNeg)
	}
	return d
}
