// vigil-sim runs one flow-level simulation epoch and prints 007's
// localization output: the vote heat-map, Algorithm 1's detections and the
// ground-truth score.
//
// Usage:
//
//	vigil-sim -failures 3 -rate 0.005
//	vigil-sim -pods 4 -tors 16 -t1 16 -t2 8 -hosts 16 -conns 40
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vigil"
	"vigil/internal/prof"
	"vigil/internal/runutil"
	"vigil/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("vigil-sim", flag.ContinueOnError)
	pods := fs.Int("pods", vigil.DefaultSimTopology.Pods, "pods")
	tors := fs.Int("tors", vigil.DefaultSimTopology.ToRsPerPod, "ToRs per pod")
	t1 := fs.Int("t1", vigil.DefaultSimTopology.T1PerPod, "tier-1 switches per pod")
	t2 := fs.Int("t2", vigil.DefaultSimTopology.T2, "tier-2 switches")
	hosts := fs.Int("hosts", vigil.DefaultSimTopology.HostsPerToR, "hosts per ToR")
	conns := fs.Int("conns", 60, "connections per host per epoch")
	failures := fs.Int("failures", 1, "failed links to inject")
	rate := fs.Float64("rate", 0.005, "failed-link drop rate")
	epochs := fs.Int("epochs", 1, "epochs to run")
	seed := fs.Uint64("seed", 1, "random seed")
	top := fs.Int("top", 10, "ranking entries to print")
	parallel := fs.Int("par", 0, "epoch pipeline workers (0 = all cores); results are identical at any setting")
	profiler := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := profiler.Start(); err != nil {
		return err
	}
	defer func() { // error exits still flush a running CPU profile
		if perr := profiler.Stop(); err == nil {
			err = perr
		}
	}()

	sim, err := vigil.NewSimulation(vigil.SimConfig{
		Topology: vigil.TopologyConfig{
			Pods: *pods, ToRsPerPod: *tors, T1PerPod: *t1, T2: *t2, HostsPerToR: *hosts,
		},
		Workload: vigil.Workload{
			Pattern:        vigil.UniformTraffic(),
			ConnsPerHost:   vigil.IntRange{Lo: *conns, Hi: *conns},
			PacketsPerFlow: vigil.IntRange{Lo: 100, Hi: 100},
		},
		Seed:        *seed,
		Parallelism: *parallel,
	})
	if err != nil {
		return err
	}
	topo := sim.Topology()
	rng := stats.NewRNG(*seed + 99)
	classes := []vigil.LinkClass{vigil.L1Up, vigil.L1Down, vigil.L2Up, vigil.L2Down}
	size := 0
	for _, c := range classes {
		size += len(topo.LinksOfClass(c))
	}
	links, err := runutil.DistinctLinks(*failures, size, func() vigil.LinkID {
		pool := topo.LinksOfClass(classes[rng.Intn(len(classes))])
		return pool[rng.Intn(len(pool))]
	})
	if err != nil {
		return err
	}
	for _, l := range links {
		if err := sim.InjectFailure(l, *rate); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "injected: %s at %.3f%%\n", vigil.LinkName(topo, l), *rate*100)
	}

	for e := 0; e < *epochs; e++ {
		rep := sim.RunEpoch()
		fmt.Fprintf(stdout, "\nepoch %d: %d flows, %d failed, %d drops\n",
			e, rep.TotalFlows, rep.FailedFlows, rep.TotalDrops)
		fmt.Fprintf(stdout, "top %d links by votes:\n", *top)
		for i, lv := range rep.Ranking {
			if i >= *top {
				break
			}
			marker := ""
			for _, f := range rep.FailedLinks {
				if f == lv.Link {
					marker = "  <-- injected failure"
				}
			}
			fmt.Fprintf(stdout, "  %5.2f  %s%s\n", lv.Votes, vigil.LinkName(topo, lv.Link), marker)
		}
		fmt.Fprintf(stdout, "Algorithm 1 detected %d link(s):\n", len(rep.Detected))
		for _, l := range rep.Detected {
			fmt.Fprintf(stdout, "  %s\n", vigil.LinkName(topo, l))
		}
		fmt.Fprintf(stdout, "per-flow accuracy %.1f%% over %d failure-crossing flows; precision %.2f recall %.2f\n",
			rep.Accuracy*100, rep.FlowsScored, rep.Detection.Precision, rep.Detection.Recall)
	}
	return nil
}
