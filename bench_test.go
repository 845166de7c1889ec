package vigil_test

// One benchmark per table and figure of the paper, per DESIGN.md's
// experiment index. Each iteration regenerates the experiment at Quick
// scale (the Full-scale numbers come from `vigil-lab -run all`); the
// benchmark names give `go test -bench` a one-command tour of the whole
// evaluation.

import (
	"fmt"
	"runtime"
	"testing"

	"vigil"
	"vigil/internal/engine"
	"vigil/internal/topology"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := vigil.RunExperiment(id, vigil.ExperimentOptions{
			Scale: vigil.QuickScale,
			Seeds: 1,
			Seed:  uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig1(b *testing.B)         { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig3(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkNetSize(b *testing.B)      { benchExperiment(b, "netsize") }
func BenchmarkCluster2(b *testing.B)     { benchExperiment(b, "cluster2") }
func BenchmarkCluster3(b *testing.B)     { benchExperiment(b, "cluster3") }
func BenchmarkProdEverflow(b *testing.B) { benchExperiment(b, "prod-everflow") }
func BenchmarkProdReboots(b *testing.B)  { benchExperiment(b, "prod-reboots") }
func BenchmarkTheorem1(b *testing.B)     { benchExperiment(b, "theorem1") }
func BenchmarkTheorem2(b *testing.B)     { benchExperiment(b, "theorem2") }

func BenchmarkAblAdjust(b *testing.B)    { benchExperiment(b, "abl-adjust") }
func BenchmarkAblThreshold(b *testing.B) { benchExperiment(b, "abl-threshold") }
func BenchmarkAblVoteValue(b *testing.B) { benchExperiment(b, "abl-votevalue") }
func BenchmarkAblRateLimit(b *testing.B) { benchExperiment(b, "abl-ratelimit") }

// BenchmarkEpochPaperScale measures one full 007 cycle — simulate, vote,
// detect, classify — at the paper's 4160-link scale, fanned out over all
// cores (SimConfig.Parallelism defaults to GOMAXPROCS).
func BenchmarkEpochPaperScale(b *testing.B) {
	benchEpochAtParallelism(b, 0)
}

// BenchmarkEpochParallel charts the speedup curve of the sharded epoch
// engine: the same seeded workload at fixed worker counts.
func BenchmarkEpochParallel(b *testing.B) {
	for _, parallelism := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", parallelism), func(b *testing.B) {
			benchEpochAtParallelism(b, parallelism)
		})
	}
}

// BenchmarkEpochSteadyState measures the no-failure epoch — the always-on
// monitoring regime 007 spends nearly all of its life in. Every flow takes
// the survival-gated fast path: resolve the path into a per-worker buffer,
// sum precomputed log-survival terms, one uniform draw, done. ReportAllocs
// documents the zero-allocation contract: the fixed per-epoch overhead is
// tens of allocations against ~67k flows, i.e. ~0 allocs per flow.
func BenchmarkEpochSteadyState(b *testing.B) {
	sim, err := vigil.NewSimulation(vigil.SimConfig{Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	sim.RunEpoch() // warm the reusable epoch scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sim.RunEpoch()
		if rep.TotalFlows == 0 {
			b.Fatal("no flows")
		}
	}
}

// BenchmarkClusterEpoch measures one packet-plane epoch at the §7 test
// cluster scale (40 hosts, 80 physical links): every data packet, ACK,
// traceroute probe and ICMP reply is emulated individually through the DES
// fabric while the host agents run the real 007 cycle, and the closed
// epoch's flow records and connections recycle at the next epoch's first
// flow start. This is the other plane of BENCH_N.json's trajectory — the
// flow-plane epochs above are the throughput story, this is the fidelity
// story.
func BenchmarkClusterEpoch(b *testing.B) {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		b.Fatal(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	bad := topo.LinksOfClass(vigil.L1Down)[3]
	if err := em.InjectFailure(bad, 0.01); err != nil {
		b.Fatal(err)
	}
	workload := vigil.Workload{
		Pattern:        vigil.UniformTraffic(),
		ConnsPerHost:   vigil.IntRange{Lo: 10, Hi: 10},
		PacketsPerFlow: vigil.IntRange{Lo: 75, Hi: 150},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.StartWorkload(workload, 20*vigil.Second)
		res := em.RunEpoch()
		if res == nil || em.LastEpoch().Flows == 0 {
			b.Fatal("no flows in cluster epoch")
		}
	}
}

// BenchmarkClusterSteadyState is the packet plane's zero-allocation
// contract: the same §7-scale epoch as BenchmarkClusterEpoch but with no
// injected failure — the always-on monitoring regime. After warmup every
// pool (packet buffers, scheduler lanes, connections, flow records, tuple
// maps) is hot, so a whole epoch of per-packet emulation settles at a few
// dozen allocations.
func BenchmarkClusterSteadyState(b *testing.B) {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		b.Fatal(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	workload := vigil.Workload{
		Pattern:        vigil.UniformTraffic(),
		ConnsPerHost:   vigil.IntRange{Lo: 10, Hi: 10},
		PacketsPerFlow: vigil.IntRange{Lo: 75, Hi: 150},
	}
	// Warm the pools.
	em.StartWorkload(workload, 20*vigil.Second)
	em.RunEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.StartWorkload(workload, 20*vigil.Second)
		res := em.RunEpoch()
		if res == nil || em.LastEpoch().Flows == 0 {
			b.Fatal("no flows in cluster epoch")
		}
	}
}

// BenchmarkEpochDatacenter is the scaling benchmark of the datacenter flow
// plane: one full 007 cycle on the multi-cluster reference fabric —
// 142,848 directed links, ~2.07M flows per epoch — fanned out over all
// cores. This is the fused pipeline with nothing cached: every epoch
// generates, routes and scores every flow.
func BenchmarkEpochDatacenter(b *testing.B) { benchEpochDatacenter(b, 0) }

// BenchmarkEpochDatacenterSerial is the same epoch on one worker: against
// BenchmarkEpochDatacenter it is what the fused pipeline's fan-out buys
// (DESIGN.md "Parallelism knobs").
func BenchmarkEpochDatacenterSerial(b *testing.B) { benchEpochDatacenter(b, 1) }

func benchEpochDatacenter(b *testing.B, parallelism int) {
	sim, err := vigil.NewSimulation(vigil.SimConfig{
		Topology:      vigil.DatacenterSimTopology.Flatten(),
		Seed:          1,
		TracerouteCap: 10,
		Parallelism:   parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	bad := sim.Topology().LinksOfClass(vigil.L1Up)[7]
	if err := sim.InjectFailure(bad, 0.003); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sim.RunEpoch()
		if rep.TotalFlows < 2_000_000 {
			b.Fatalf("datacenter epoch ran only %d flows", rep.TotalFlows)
		}
	}
}

// BenchmarkClusterEpochDatacenter is the packet plane's raised scale
// target: a full multi-cluster datacenter epoch, 32 pods of individually
// emulated packets on DatacenterPacketTopology, clean hops riding
// cut-through flights. ConnsPerHost is trimmed to 4 so a full epoch stays a
// sub-second CI unit while still pushing ~1k flows and ~100k packets
// through the fabric.
func BenchmarkClusterEpochDatacenter(b *testing.B) { benchClusterDatacenter(b, 0) }

// BenchmarkClusterEpochDatacenterNoisy is the same epoch with the engine's
// default 1e-6 good-link noise, as bench/'s packet-dc runs it: every link
// has a positive rate, so every crossing pays its drop draw.
func BenchmarkClusterEpochDatacenterNoisy(b *testing.B) { benchClusterDatacenter(b, 1e-6) }

func benchClusterDatacenter(b *testing.B, noiseHi float64) {
	topo, err := vigil.NewDatacenterTopology(vigil.DatacenterPacketTopology)
	if err != nil {
		b.Fatal(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 1, NoiseHi: noiseHi})
	if err != nil {
		b.Fatal(err)
	}
	bad := topo.LinksOfClass(vigil.L1Down)[3]
	if err := em.InjectFailure(bad, 0.01); err != nil {
		b.Fatal(err)
	}
	workload := vigil.Workload{
		Pattern:        vigil.UniformTraffic(),
		ConnsPerHost:   vigil.IntRange{Lo: 4, Hi: 4},
		PacketsPerFlow: vigil.IntRange{Lo: 75, Hi: 150},
	}
	// Warm the pools.
	em.StartWorkload(workload, 20*vigil.Second)
	em.RunEpoch()
	events0, fused0, counted := planeCounts(em)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.StartWorkload(workload, 20*vigil.Second)
		res := em.RunEpoch()
		if res == nil || em.LastEpoch().Flows == 0 {
			b.Fatal("no flows in datacenter cluster epoch")
		}
	}
	if events, fused, _ := planeCounts(em); counted {
		b.ReportMetric((events-events0)/float64(b.N), "events/op")
		b.ReportMetric((fused-fused0)/float64(b.N), "fused-hops/op")
	}
}

// planeCounts reads the packet plane's running totals: scheduler events
// executed and switch hops folded into cut-through flights. Both are counts
// of the emulation, not timings: they repeat exactly from run to run. The
// accessors are looked up dynamically so that this file also builds against
// a commit that predates them — a BENCH_N_parent.json row is this same file
// run on the parent — where ok is false and the metrics are left out.
func planeCounts(em *vigil.Emulation) (events, fused float64, ok bool) {
	if s, has := any(em.Sched).(interface{ Executed() uint64 }); has {
		events, ok = float64(s.Executed()), true
	}
	if n, has := any(em.Net).(interface{ HopsFused() int64 }); has {
		fused = float64(n.HopsFused())
	}
	return events, fused, ok
}

// BenchmarkEpochDatacenterDelta is the same datacenter fabric in
// incremental mode: the flow set froze after a warmup epoch, and each
// iteration changes one link's rate so the epoch re-scores only the flows
// crossing it — the steady operating mode of a long-running datacenter
// simulation, and the headline win of the delta engine over the full
// pipeline above.
func BenchmarkEpochDatacenterDelta(b *testing.B) {
	sim, err := vigil.NewSimulation(vigil.SimConfig{
		Topology:      vigil.DatacenterSimTopology.Flatten(),
		Seed:          1,
		TracerouteCap: 10,
		Incremental:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	bad := sim.Topology().LinksOfClass(vigil.L1Up)[7]
	sim.RunEpoch() // warmup: full epoch, builds the delta cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the rate so every iteration dirties the link and runs a
		// real delta (an unchanged rate would be a no-op epoch).
		rate := 0.003 + float64(i%2)*0.002
		if err := sim.InjectFailure(bad, rate); err != nil {
			b.Fatal(err)
		}
		rep := sim.RunEpoch()
		if rep.TotalFlows < 2_000_000 {
			b.Fatalf("datacenter delta epoch ran only %d flows", rep.TotalFlows)
		}
	}
}

// BenchmarkDatacenterSetup is what a datacenter incremental simulation
// costs before its first delta epoch: build the reference fabric, build
// the flow engine on it, and Step the first epoch — the fused full epoch
// that fills the delta cache and transposes it into the link→flows index.
// It is bench/run.sh's flow-dc-delta set-up without the harness. live-MiB
// is the heap the last engine keeps (HeapAlloc after a collection, the
// engine still reachable); the process's peak RSS runs at about twice it,
// as GOGC=100 lets the heap grow to twice its live size.
func BenchmarkDatacenterSetup(b *testing.B) {
	b.ReportAllocs()
	var eng engine.Engine
	for i := 0; i < b.N; i++ {
		topo, err := topology.New(topology.DatacenterSimConfig.Flatten())
		if err != nil {
			b.Fatal(err)
		}
		eng, err = engine.New(engine.Config{Topo: topo, Seed: 1, TracerouteCap: 10, Incremental: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.InjectFailure(topo.LinksOfClass(topology.L1Up)[7], 0.003); err != nil {
			b.Fatal(err)
		}
		if res := eng.Step(nil); res.TotalFlows < 2_000_000 {
			b.Fatalf("datacenter set-up epoch ran only %d flows", res.TotalFlows)
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MiB")
	runtime.KeepAlive(eng)
}

// BenchmarkTopologyNewDatacenter builds the 142,848-link reference fabric:
// switches, hosts, links and the per-switch port tables, nothing else.
func BenchmarkTopologyNewDatacenter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.New(topology.DatacenterSimConfig.Flatten()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEpochAtParallelism(b *testing.B, parallelism int) {
	b.Helper()
	sim, err := vigil.NewSimulation(vigil.SimConfig{Seed: 1, Parallelism: parallelism})
	if err != nil {
		b.Fatal(err)
	}
	bad := sim.Topology().LinksOfClass(vigil.L1Up)[3]
	sim.InjectFailure(bad, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sim.RunEpoch()
		if rep.TotalFlows == 0 {
			b.Fatal("no flows")
		}
	}
}

func BenchmarkExtLatency(b *testing.B) { benchExperiment(b, "ext-latency") }
