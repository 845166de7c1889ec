package ingest

import (
	"testing"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// wireEpochResult is an epoch at the shape bench/'s wire-replay workload
// records: 1,440 failed flows, four to an agent, each with a ground-truth
// entry.
func wireEpochResult() *engine.EpochResult {
	const flows = 1440
	res := &engine.EpochResult{
		Epoch: 7, TotalFlows: 57600, FailedFlows: flows, TotalDrops: 2 * flows,
		FailedLinks: []topology.LinkID{11, 12, 13, 14},
		Truth:       make(map[int64]metrics.FlowTruth, flows),
	}
	for i := 0; i < flows; i++ {
		id := int64(i) * 40 // failed flows are scattered over the epoch's flow ids
		res.Reports = append(res.Reports, vote.Report{
			FlowID: id, Src: topology.HostID(i / 4), Dst: topology.HostID(i % 97), Seq: int32(i % 4), Epoch: 7,
			Path: []topology.LinkID{1, 2, 3, 4, 5},
		})
		res.Truth[id] = metrics.FlowTruth{Culprit: topology.LinkID(11 + i%4), CrossedFailure: true}
	}
	return res
}

var tokenSink int

// BenchmarkBuildToken is the agent's share of every verdict's latency: it
// runs between Step returning and the cycle token leaving.
func BenchmarkBuildToken(b *testing.B) {
	res := wireEpochResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := buildToken(int32(i), res)
		tokenSink += len(t.Counts) + len(t.Summary.Truth)
	}
}
