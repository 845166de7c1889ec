package main

import (
	"reflect"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// The checks are self-referential: a settled epoch is compared with what
// the same code computes in batch from the same inputs, never with stored
// goldens, so a legitimate change to the draw discipline does not strand
// the benchmark.

// sameEpoch reports whether two results carry the same reports and the
// same analysis of them.
func sameEpoch(a, b *engine.EpochResult) bool {
	return reflect.DeepEqual(a.Reports, b.Reports) && sameAnalysis(a, b.Ranking, b.Detected, b.Verdicts)
}

func sameAnalysis(res *engine.EpochResult, ranking []vote.LinkVotes, detected []topology.LinkID, verdicts []vote.Verdict) bool {
	return reflect.DeepEqual(res.Ranking, ranking) &&
		reflect.DeepEqual(res.Detected, detected) &&
		reflect.DeepEqual(res.Verdicts, verdicts)
}

// checkSettled holds each kept settled epoch to the batch analysis of its
// inputs. Fault-free, the inputs are the recorded trace itself; under
// faults they are whatever the epoch accepted, which must be a duplicate-
// free, canonically ordered part of what was emitted. A failing epoch
// counts all its reports as failed.
func (r *run) checkSettled(replay *replayEngine, kept []*engine.EpochResult, faultFree bool) {
	opts := replay.Analysis()
	for _, res := range kept {
		emitted := replay.epochReports(res.Epoch)
		ok := len(res.Reports) <= len(emitted)
		for i := 1; ok && i < len(res.Reports); i++ {
			ok = vote.CanonicalLess(res.Reports[i-1], res.Reports[i])
		}
		inputs := res.Reports
		if faultFree {
			inputs = emitted
			ok = ok && reflect.DeepEqual(res.Reports, emitted)
		}
		an := analysis.Analyze(inputs, opts)
		if !ok || !sameAnalysis(res, an.Ranking, an.Detected, an.Verdicts) {
			r.failf("epoch %d: settled result differs from analysis.Analyze of its inputs", res.Epoch)
			r.res.Failed += int64(len(emitted))
		}
	}
	r.res.Checked = len(kept)
}
