package metrics

import (
	"testing"

	"vigil/internal/opt"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

func TestScoreVerdicts(t *testing.T) {
	truth := map[int64]FlowTruth{
		1: {Culprit: 10, CrossedFailure: true},
		2: {Culprit: 10, CrossedFailure: true},
		3: {Culprit: 20, CrossedFailure: false}, // noise flow: not considered
		4: {Culprit: 30, CrossedFailure: true},
	}
	verdicts := []vote.Verdict{
		{FlowID: 1, Link: 10},              // correct
		{FlowID: 2, Link: 11},              // wrong link
		{FlowID: 3, Link: 20},              // not considered
		{FlowID: 4, Link: 30, Noise: true}, // correct link but flagged noise
		{FlowID: 5, Link: 1},               // no truth entry: ignored
	}
	s := ScoreVerdicts(verdicts, truth)
	if s.Considered != 3 {
		t.Fatalf("considered = %d, want 3", s.Considered)
	}
	if s.Correct != 2 {
		t.Fatalf("correct = %d, want 2", s.Correct)
	}
	if s.NoiseErrors != 1 {
		t.Fatalf("noise errors = %d, want 1", s.NoiseErrors)
	}
	if acc := s.Accuracy(); acc < 0.66 || acc > 0.67 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestAccuracyEmptyIsOne(t *testing.T) {
	if (FlowScore{}).Accuracy() != 1 {
		t.Fatal("empty score should read as vacuously perfect")
	}
}

func TestScoreBlamer(t *testing.T) {
	truth := map[int64]FlowTruth{
		1: {Culprit: 7, CrossedFailure: true},
		2: {Culprit: 7, CrossedFailure: true},
	}
	reports := []vote.Report{
		{FlowID: 1, Path: []topology.LinkID{5, 7, 9}},
		{FlowID: 2, Path: []topology.LinkID{4, 6, 8}},
	}
	// Flow 2's path holds no 7: its blame is 4.
	s := ScoreBlamer(opt.IntegerSolution{Drops: map[topology.LinkID]int{7: 3, 4: 1}}, reports, truth)
	if s.Considered != 2 || s.Correct != 1 {
		t.Fatalf("score = %+v", s)
	}
}

func TestScoreBlamerEmptyPath(t *testing.T) {
	truth := map[int64]FlowTruth{1: {Culprit: 7, CrossedFailure: true}}
	s := ScoreBlamer(opt.IntegerSolution{Drops: map[topology.LinkID]int{7: 3}}, []vote.Report{{FlowID: 1}}, truth)
	if s.NoiseErrors != 1 || s.Correct != 0 {
		t.Fatalf("score = %+v", s)
	}
}

func TestScoreDetectionCounts(t *testing.T) {
	d := ScoreDetection([]topology.LinkID{1, 2, 3}, []topology.LinkID{2, 3, 4, 5})
	if d.TruePos != 2 || d.FalsePos != 1 || d.FalseNeg != 2 {
		t.Fatalf("detection = %+v", d)
	}
	if d.Precision != 2.0/3 || d.Recall != 0.5 {
		t.Fatalf("p/r = %v/%v", d.Precision, d.Recall)
	}
}
