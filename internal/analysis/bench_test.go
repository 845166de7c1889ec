package analysis_test

import (
	"slices"
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// benchEngine returns an engine with `failures` L1Up links failed at `rate`
// on the given fabric, the shape of the benchmark's workloads
// (bench/spec.go), and the links it failed.
func benchEngine(tb testing.TB, cfg topology.Config, incremental bool, failures int, rate float64, seed uint64) (engine.Engine, []topology.LinkID) {
	tb.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ec := engine.Config{Topo: topo, Seed: seed}
	if incremental {
		ec.Incremental, ec.TracerouteCap = true, 10
	}
	eng, err := engine.New(ec)
	if err != nil {
		tb.Fatal(err)
	}
	up := topo.LinksOfClass(topology.L1Up)
	links := make([]topology.LinkID, failures)
	for i := range links {
		links[i] = up[(i*37+7)%len(up)]
		if err := eng.InjectFailure(links[i], rate); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, links
}

// benchEpoch returns one settled epoch's reports and the engine's own
// analysis options.
func benchEpoch(tb testing.TB, cfg topology.Config, incremental bool, failures int, rate float64, seed uint64) ([]vote.Report, analysis.Options) {
	eng, _ := benchEngine(tb, cfg, incremental, failures, rate, seed)
	return eng.Step(nil).Reports, eng.Analysis()
}

// paperEpoch is the wire-replay/lanes-lossy shape: 20 failed links at 5% on
// the §6 fabric, ≈1.4k reports.
func paperEpoch(tb testing.TB) ([]vote.Report, analysis.Options) {
	return benchEpoch(tb, topology.DefaultSimConfig, false, 20, 0.05, 1)
}

// datacenterEpoch is the flow-dc-delta shape: 5 failed links at 0.3% on the
// 142,848-link fabric, ≈0.8k reports whose link ids span the whole fabric.
func datacenterEpoch(tb testing.TB) ([]vote.Report, analysis.Options) {
	return benchEpoch(tb, topology.DatacenterSimConfig.Flatten(), true, 5, 0.003, 1)
}

// deltaRates are the two rates a flow-dc-delta link flips between
// (bench/slice.go).
var deltaRates = [2]float64{0.003, 0.005}

// datacenterDeltaEpochs is n consecutive flow-dc-delta epochs of one
// incremental engine: the datacenter shape, one failed link's rate flipped
// per epoch, rotating over the links, as the benchmark's workload does.
func datacenterDeltaEpochs(tb testing.TB, n int, seed uint64) ([][]vote.Report, analysis.Options) {
	eng, links := benchEngine(tb, topology.DatacenterSimConfig.Flatten(), true, 5, deltaRates[0], seed)
	epochs := make([][]vote.Report, n)
	for i := range epochs {
		if i > 0 {
			if err := eng.InjectFailure(links[i%len(links)], deltaRates[(i/len(links)+1)%2]); err != nil {
				tb.Fatal(err)
			}
		}
		epochs[i] = eng.Step(nil).Reports
	}
	return epochs, eng.Analysis()
}

// repeatTo is reports repeated to n.
func repeatTo(reports []vote.Report, n int) []vote.Report {
	out := make([]vote.Report, 0, n)
	for len(out) < n {
		out = append(out, reports[:min(len(reports), n-len(out))]...)
	}
	return out
}

// requireDisjoint fails unless no report of a has a report of b with its
// FlowID and path: such a pair of epochs gives Localize nothing to carry.
func requireDisjoint(tb testing.TB, a, b []vote.Report) {
	tb.Helper()
	for _, r := range a {
		for _, q := range b {
			if r.FlowID == q.FlowID && slices.Equal(r.Path, q.Path) {
				tb.Fatalf("flow %d has path %v in both epochs", r.FlowID, r.Path)
			}
		}
	}
}

// BenchmarkAnalyze is the settle-time analysis ledger row: Analyze at paper
// scale, at datacenter scale and on a 16k-report epoch (the size at which
// a classify fan-out would have to pay), each
// alternating between two seeds' epochs that share no report, so every
// call builds afresh; over consecutive flow-dc-delta epochs, where each
// call patches the index the call before left; and over two incremental
// engines' consecutive epochs, alternating, each call with its own
// engine's options, so that each patches from its own engine's last epoch.
func BenchmarkAnalyze(b *testing.B) {
	// Call i analyzes epochs[i%len(epochs)] with opts[i%len(opts)].
	run := func(name string, epochs [][]vote.Report, opts ...analysis.Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(epochs[0])), "reports")
			for i := 0; i < b.N; i++ {
				reports := epochs[i%len(epochs)]
				if res := analysis.Analyze(reports, opts[i%len(opts)]); len(res.Verdicts) != len(reports) {
					b.Fatal("verdict count")
				}
			}
		})
	}
	paper, popts := paperEpoch(b)
	paper2, _ := benchEpoch(b, topology.DefaultSimConfig, false, 20, 0.05, 2)
	requireDisjoint(b, paper, paper2)
	run("paper", [][]vote.Report{paper, paper2}, popts)
	if !testing.Short() {
		dc, dopts := datacenterEpoch(b)
		dc2, _ := benchEpoch(b, topology.DatacenterSimConfig.Flatten(), true, 5, 0.003, 2)
		requireDisjoint(b, dc, dc2)
		run("datacenter", [][]vote.Report{dc, dc2}, dopts)
	}
	run("reports=16k", [][]vote.Report{repeatTo(paper, 16384), repeatTo(paper2, 16384)}, popts)
	if !testing.Short() {
		// Forth and back, so that every call follows a neighbouring epoch.
		forthAndBack := func(seed uint64) ([][]vote.Report, analysis.Options) {
			epochs, opts := datacenterDeltaEpochs(b, 16, seed)
			for i := len(epochs) - 2; i > 0; i-- {
				epochs = append(epochs, epochs[i])
			}
			return epochs, opts
		}
		one, oneOpts := forthAndBack(1)
		run("datacenter-delta", one, oneOpts)
		two, twoOpts := forthAndBack(2)
		both := make([][]vote.Report, 0, 2*len(one))
		for i := range one {
			both = append(both, one[i], two[i])
		}
		run("datacenter-delta-two-engines", both, oneOpts, twoOpts)
	}
}
