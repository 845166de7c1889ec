package ingest

import (
	"context"
	"slices"
	"testing"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/transport"
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

// settleFeed drives a settle core straight through report/token/next, one
// epoch per cycle, at the shape of bench/'s two service workloads: 360
// agents sending four reports each. With one source it is wire-replay's
// (arrivals canonical); with four, agent a is on source a mod 4, the
// sources' 128-report runs interleaved, as four sessions would send them,
// with 0.5 % of first transmissions lost and re-sent when re-requested and
// 2 % sent twice. It calls only the core's report, token and next, so the
// same file measures older commits.
type settleFeed struct {
	core    *settleCore
	sources int
	lossy   bool
	reports []vote.Report            // one epoch's, canonical; Epoch is set per cycle
	counts  [][]transport.AgentCount // per source
	retries []transport.RetryReq     // the last cycle's re-requests, answered in this one
	cycle   int32
	settled int
}

const feedAgents, feedPerAgent = 360, 4

// feedRun is how many of one source's reports arrive in a row before the
// next source's, in the interleaved arrival order.
const feedRun = 128

func newSettleFeed(sources int, lossy bool) *settleFeed {
	f := &settleFeed{sources: sources, lossy: lossy, counts: make([][]transport.AgentCount, sources)}
	grace, maxRetries := 2, 0
	if lossy {
		grace, maxRetries = 4, 3
	}
	f.core = newSettleCore(sources, grace, maxRetries, &metrics.IngestCounters{}, -1)
	path := []topology.LinkID{1, 2, 3, 4, 5}
	for a := 0; a < feedAgents; a++ {
		for q := 0; q < feedPerAgent; q++ {
			f.reports = append(f.reports, vote.Report{
				FlowID: int64(len(f.reports)) * 40, Src: topology.HostID(a), Dst: topology.HostID(a % 97), Seq: int32(q), Path: path,
			})
		}
		f.counts[a%sources] = append(f.counts[a%sources], transport.AgentCount{Agent: topology.HostID(a), N: feedPerAgent})
	}
	return f
}

// send transmits report i of the epoch; a lossy feed loses or repeats some
// first transmissions, as a pure function of the identity.
func (f *settleFeed) send(e int32, i int, attempt uint8) {
	r := f.reports[i]
	r.Epoch = e
	if f.lossy && attempt == 0 {
		switch u := stats.DeriveUniform(uint64(e), uint64(i)); {
		case u < 0.005:
			return
		case u >= 0.98:
			f.core.report(r, 0, false)
		}
	}
	f.core.report(r, attempt, false)
}

// step runs one cycle: the last cycle's re-requests answered, the epoch's
// reports a run per source in turn, then every source's token.
func (f *settleFeed) step() {
	e := f.cycle
	f.cycle++
	for _, q := range f.retries {
		f.send(q.Epoch, int(q.Agent)*feedPerAgent+int(q.Seq), q.Attempt)
	}
	perSource := len(f.reports) / f.sources
	for b := 0; b < perSource; b += feedRun {
		for s := 0; s < f.sources; s++ {
			for j := b; j < min(b+feedRun, perSource); j++ {
				// The j-th report of source s: agent s + sources*(j/perAgent).
				f.send(e, (s+f.sources*(j/feedPerAgent))*feedPerAgent+j%feedPerAgent, 0)
			}
		}
	}
	for s := 0; s < f.sources; s++ {
		f.core.token(e, true, f.counts[s])
		for done, ok := f.core.next(); ok; done, ok = f.core.next() {
			f.retries = append(f.retries[:0], done.retries...)
			if done.settled && done.live {
				f.settled++
			}
		}
	}
}

// BenchmarkSettle is the settle core's cost per epoch, one op a cycle that
// settles one epoch, in order and interleaved.
func BenchmarkSettle(b *testing.B) {
	for _, c := range []struct {
		name    string
		sources int
		lossy   bool
	}{{"inorder", 1, false}, {"interleaved", 4, true}} {
		b.Run(c.name, func(b *testing.B) {
			f := newSettleFeed(c.sources, c.lossy)
			for i := 0; i < 20; i++ { // fill the watermark window
				f.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step()
			}
		})
	}
}

// BenchmarkServiceCycle is the whole in-process Service at bench/'s
// lanes-lossy shape — the settle feed's epoch of 1,440 reports from 360
// agents, that workload's faults, grace and retry budget — one
// op per settled epoch: the source, the fault layer, the settle core, the
// analysis and the sink. The drain and the analyst's start are in the op
// count's denominator.
func BenchmarkServiceCycle(b *testing.B) {
	f := newSettleFeed(1, false)
	eng := &loopEngine{Engine: newTestEngine(b, engine.Config{Seed: 1}, soakTopo, 0)}
	for range 7 { // Grace+3, as in TestSettleSteadyStateAllocs/service
		eng.ring = append(eng.ring, &engine.EpochResult{Reports: slices.Clone(f.reports)})
	}
	settled := 0
	s, err := New(Config{
		Engine: eng, Grace: 4, MaxRetries: 3,
		Faults: FaultConfig{Seed: 1, Drop: 0.005, Duplicate: 0.02, Delay: 0.03, DelayMax: 2},
		Sink:   func(*engine.EpochResult) { settled++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if settled != b.N || s.Counters().Lost.Load() != 0 {
		b.Fatalf("settled %d of %d epochs, lost %d", settled, b.N, s.Counters().Lost.Load())
	}
}
