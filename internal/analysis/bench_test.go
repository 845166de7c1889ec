package analysis_test

import (
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// benchEpoch returns one settled epoch's reports and the engine's own
// analysis options: `failures` L1Up links failed at `rate` on the given
// fabric, the shape of the benchmark's workloads (bench/spec.go).
func benchEpoch(tb testing.TB, cfg topology.Config, incremental bool, failures int, rate float64) ([]vote.Report, analysis.Options) {
	tb.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ec := engine.Config{Topo: topo, Seed: 1}
	if incremental {
		ec.Incremental, ec.TracerouteCap = true, 10
	}
	eng, err := engine.New(ec)
	if err != nil {
		tb.Fatal(err)
	}
	up := topo.LinksOfClass(topology.L1Up)
	for i := 0; i < failures; i++ {
		if err := eng.InjectFailure(up[(i*37+7)%len(up)], rate); err != nil {
			tb.Fatal(err)
		}
	}
	return eng.Step(nil).Reports, eng.Analysis()
}

// paperEpoch is the wire-replay/lanes-lossy shape: 20 failed links at 5% on
// the §6 fabric, ≈1.4k reports.
func paperEpoch(tb testing.TB) ([]vote.Report, analysis.Options) {
	return benchEpoch(tb, topology.DefaultSimConfig, false, 20, 0.05)
}

// datacenterEpoch is the flow-dc-delta shape: 5 failed links at 0.3% on the
// 142,848-link fabric, ≈0.8k reports whose link ids span the whole fabric.
func datacenterEpoch(tb testing.TB) ([]vote.Report, analysis.Options) {
	return benchEpoch(tb, topology.DatacenterSimConfig.Flatten(), true, 5, 0.003)
}

// BenchmarkAnalyze is the settle-time analysis ledger row: one Analyze call
// at paper scale, at datacenter scale, and on a 16k-report epoch (eight
// summation chunks; the size at which a classify fan-out would have to pay).
func BenchmarkAnalyze(b *testing.B) {
	run := func(name string, reports []vote.Report, opts analysis.Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(reports)), "reports")
			for i := 0; i < b.N; i++ {
				if res := analysis.Analyze(reports, opts); len(res.Verdicts) != len(reports) {
					b.Fatal("verdict count")
				}
			}
		})
	}
	paper, popts := paperEpoch(b)
	run("paper", paper, popts)
	if !testing.Short() {
		dc, dopts := datacenterEpoch(b)
		run("datacenter", dc, dopts)
	}
	big := make([]vote.Report, 0, 16384)
	for len(big) < cap(big) {
		big = append(big, paper[:min(len(paper), cap(big)-len(big))]...)
	}
	run("reports=16k", big, popts)
}
