// Package analysis_test contains the end-to-end flow-level pipeline tests:
// inject failures into the simulator, run 007's full analysis, and check
// that the paper's headline behaviours hold (single- and multi-failure
// localization, noise robustness, ranking quality).
package analysis_test

import (
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/metrics"
	"vigil/internal/netem"
	"vigil/internal/opt"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// pipelineSim builds a simulator at the paper's §6 scale (4160 links).
// Algorithm 1's precision depends on that scale: with 32 hosts per ToR and
// 10 T1s per pod, each co-path link absorbs a small, well-estimated spill.
func pipelineSim(t testing.TB, seed uint64, conns int) *netem.Sim {
	t.Helper()
	topo, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	s, err := netem.New(netem.Config{
		Topo:    topo,
		NoiseLo: 0, NoiseHi: 1e-6,
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: conns, Hi: conns},
			PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndSingleFailure(t *testing.T) {
	s := pipelineSim(t, 1, 60) // the paper's 60 connections per host
	topo := s.Topology()
	bad := topo.LinksOfClass(topology.L1Up)[7]
	s.InjectFailure(bad, 0.01) // 1%
	ep := s.RunEpoch()
	res := analysis.Analyze(ep.Reports, analysis.Options{
		Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}},
	})
	// The bad link must top the ranking.
	if len(res.Ranking) == 0 || res.Ranking[0].Link != bad {
		t.Fatalf("top-ranked link = %v, want %v (%s)", res.Ranking[0].Link, bad, topo.LinkName(bad))
	}
	// Algorithm 1 must detect it; at this reduced scale a few adjustment
	// residuals may slip over the 1% cutoff (the paper's own Fig. 4
	// precision ranges 75-100%), so precision is bounded, not exact.
	det := metrics.ScoreDetection(res.Detected, ep.FailedLinks)
	if det.Recall != 1 {
		t.Fatalf("recall = %v, detected %v", det.Recall, res.Detected)
	}
	if det.Precision < 0.5 {
		t.Fatalf("precision = %v, detected %v", det.Precision, res.Detected)
	}
	if res.Detected[0] != bad {
		t.Fatalf("first detected link = %v, want %v", res.Detected[0], bad)
	}
	// Per-flow accuracy on flows that crossed the failure.
	score := metrics.ScoreVerdicts(res.Verdicts, ep.Truth())
	if score.Considered == 0 {
		t.Fatal("no flows crossed the failure")
	}
	if acc := score.Accuracy(); acc < 0.9 {
		t.Fatalf("per-flow accuracy = %v, want >= 0.9", acc)
	}
}

func TestEndToEndMultipleFailures(t *testing.T) {
	s := pipelineSim(t, 2, 60)
	topo := s.Topology()
	rng := stats.NewRNG(3)
	bads := []topology.LinkID{
		topo.LinksOfClass(topology.L1Up)[1],
		topo.LinksOfClass(topology.L1Down)[10],
		topo.LinksOfClass(topology.L2Up)[5],
	}
	for _, l := range bads {
		s.InjectFailure(l, rng.Uniform(0.005, 0.01))
	}
	ep := s.RunEpoch()
	res := analysis.Analyze(ep.Reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}}})
	det := metrics.ScoreDetection(res.Detected, ep.FailedLinks)
	if det.Recall < 1 {
		t.Fatalf("recall = %v (detected %v, want %v)", det.Recall, res.Detected, bads)
	}
	if det.Precision < 0.4 {
		t.Fatalf("precision = %v (detected %v)", det.Precision, res.Detected)
	}
	score := metrics.ScoreVerdicts(res.Verdicts, ep.Truth())
	if acc := score.Accuracy(); acc < 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}
}

// The paper's key robustness claim (§6.3): noise on good links barely
// affects 007, while it degrades the set-cover optimization.
func TestNoiseRobustness(t *testing.T) {
	topo, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	s, err := netem.New(netem.Config{
		Topo:    topo,
		NoiseLo: 5e-6, NoiseHi: 1e-5, // an order of magnitude above default
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 40, Hi: 40},
			PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.LinksOfClass(topology.L1Up)[3]
	s.InjectFailure(bad, 0.01)
	ep := s.RunEpoch()
	res := analysis.Analyze(ep.Reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}}})
	if res.Ranking[0].Link != bad {
		t.Fatalf("noise displaced the bad link from rank 1: %+v", res.Ranking[0])
	}
	score := metrics.ScoreVerdicts(res.Verdicts, ep.Truth())
	if acc := score.Accuracy(); acc < 0.85 {
		t.Fatalf("accuracy under noise = %v", acc)
	}
}

// "007 never marked a connection into the noisy category incorrectly" (§6).
func TestNoiseClassificationNeverWrong(t *testing.T) {
	for seed := uint64(10); seed < 15; seed++ {
		s := pipelineSim(t, seed, 30)
		topo := s.Topology()
		s.InjectFailure(topo.LinksOfClass(topology.L1Up)[int(seed)%10], 0.005)
		ep := s.RunEpoch()
		res := analysis.Analyze(ep.Reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}}})
		score := metrics.ScoreVerdicts(res.Verdicts, ep.Truth())
		if score.NoiseErrors != 0 {
			t.Fatalf("seed %d: %d failure flows classified as noise", seed, score.NoiseErrors)
		}
	}
}

// 007's accuracy should not trail the integer program's on the same epoch
// (the paper finds it on par or better, Figures 3, 5-7).
func TestVotingOnParWithIntegerProgram(t *testing.T) {
	s := pipelineSim(t, 20, 40)
	topo := s.Topology()
	s.InjectFailure(topo.LinksOfClass(topology.L1Up)[2], 0.004)
	s.InjectFailure(topo.LinksOfClass(topology.L2Down)[9], 0.008)
	ep := s.RunEpoch()
	res := analysis.Analyze(ep.Reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}}})
	truth := ep.Truth()
	acc007 := metrics.ScoreVerdicts(res.Verdicts, truth).Accuracy()

	in := opt.BuildInstance(ep.Reports)
	sol := in.SolveInteger(stats.NewRNG(1))
	accInt := metrics.ScoreBlamer(sol, ep.Reports, truth).Accuracy()

	if acc007 < accInt-0.1 {
		t.Fatalf("007 accuracy %v far below integer program %v", acc007, accInt)
	}
}

func TestScoreDetectionEdgeCases(t *testing.T) {
	d := metrics.ScoreDetection(nil, nil)
	if d.Precision != 1 || d.Recall != 1 {
		t.Fatalf("empty/empty: %+v", d)
	}
	d = metrics.ScoreDetection(nil, []topology.LinkID{1})
	if d.Precision != 1 || d.Recall != 0 {
		t.Fatalf("none predicted: %+v", d)
	}
	d = metrics.ScoreDetection([]topology.LinkID{1, 2}, []topology.LinkID{2, 3})
	if d.TruePos != 1 || d.FalsePos != 1 || d.FalseNeg != 1 {
		t.Fatalf("mixed: %+v", d)
	}
	if d.Precision != 0.5 || d.Recall != 0.5 {
		t.Fatalf("mixed p/r: %+v", d)
	}
}
