// vigil-agents runs the deployment shape of the paper's Figure 2 on one
// machine: emulated hosts run 007 agents over the packet fabric and ship
// their vote reports to a centralized analysis collector over real
// loopback TCP; the collector tallies each epoch and prints the verdicts.
//
// With -collector, vigil-agents instead becomes a remote reporter for a
// vigild networked collector (vigild -collector-listen ...): it drives a
// local engine and streams reports, cycle tokens and retransmissions over
// a resumable transport session that survives partitions and collector
// restarts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"vigil"
	"vigil/internal/cluster"
	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/metrics"
	"vigil/internal/prof"
	"vigil/internal/runutil"
	"vigil/internal/scenario"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// profiler is shared with fail so error exits still flush a running CPU
// profile.
var profiler *prof.Profiler

func main() {
	epochs := flag.Int("epochs", 3, "epochs to run")
	failures := flag.Int("failures", 2, "failed links to inject")
	rate := flag.Float64("rate", 0.03, "failed-link drop rate")
	conns := flag.Int("conns", 5, "connections per host per epoch")
	seed := flag.Uint64("seed", 1, "random seed")
	listen := flag.String("listen", "127.0.0.1:0", "collector listen address")
	collector := flag.String("collector", "", "remote vigild collector address (switches to the resumable ingest transport)")
	plane := flag.String("plane", "flow", "engine plane in -collector mode: flow or packet")
	session := flag.Uint64("session", 0, "transport session ID in -collector mode")
	grace := flag.Int("grace", 0, "collector grace window in -collector mode (0 = default 2)")
	profiler = prof.Register()
	flag.Parse()

	if err := profiler.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := profiler.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vigil-agents:", err)
		}
	}()

	if *collector != "" {
		runIngestAgent(*collector, *plane, *session, *epochs, *failures, *grace, *rate, *seed)
		return
	}

	em, err := vigil.NewEmulation(vigil.EmulationConfig{
		Topo: must(vigil.NewTopology(vigil.TestClusterTopology)), Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	topo := em.Topo

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	srv := cluster.ServeCollector(em.Agent, ln)
	defer srv.Close()
	fmt.Printf("analysis collector listening on %s\n", srv.Addr())

	rep, err := cluster.DialReporter(srv.Addr())
	if err != nil {
		fail(err)
	}
	defer rep.Close()
	em.Reporter = func(r vote.Report) {
		if err := rep.Report(r); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
		}
	}

	rng := stats.NewRNG(*seed + 3)
	var bad []vigil.LinkID
	pool := topo.LinksOfClass(topology.L1Down)
	for i := 0; i < *failures; i++ {
		l := pool[rng.Intn(len(pool))]
		if err := em.InjectFailure(l, *rate); err != nil {
			fail(err)
		}
		bad = append(bad, l)
		fmt.Printf("injected %.1f%% loss on %s\n", *rate*100, topo.LinkName(l))
	}

	// First Ctrl-C finishes the running epoch, then the defers flush the
	// profile and close the collector cleanly; a second one force-kills.
	ctx, stopSignals := runutil.SignalContext(context.Background())
	defer stopSignals()

	for e := 0; e < *epochs && ctx.Err() == nil; e++ {
		em.StartWorkload(vigil.Workload{
			Pattern:        vigil.UniformTraffic(),
			ConnsPerHost:   vigil.IntRange{Lo: *conns, Hi: *conns},
			PacketsPerFlow: vigil.IntRange{Lo: 50, Hi: 100},
		}, 20*vigil.Second)
		res := em.RunEpoch()
		fmt.Printf("\nepoch %d: %d reports over TCP (%d total received)\n",
			e, res.Tally.Flows(), srv.Received.Load())
		for i, lv := range res.Ranking {
			if i >= 5 {
				break
			}
			marker := ""
			for _, b := range bad {
				if b == lv.Link {
					marker = "  <-- injected"
				}
			}
			fmt.Printf("  %6.2f  %s%s\n", lv.Votes, topo.LinkName(lv.Link), marker)
		}
		fmt.Printf("  detected: %d link(s)\n", len(res.Detected))
		for _, l := range res.Detected {
			fmt.Printf("    %s\n", topo.LinkName(l))
		}
	}
}

// runIngestAgent is the -collector mode: drive a local engine and stream
// its epochs to a remote vigild collector over the resumable transport.
// The topology must match the collector's (vigild uses the same quick
// config per plane), and the collector's grace window must match -grace.
func runIngestAgent(addr, plane string, session uint64, epochs, failures, grace int, rate float64, seed uint64) {
	pl := engine.Plane(plane)
	if !pl.Valid() {
		fail(fmt.Errorf("unknown plane %q (want flow or packet)", plane))
	}
	topoCfg := scenario.QuickTopo
	if pl == engine.Packet {
		topoCfg = scenario.PacketQuickTopo
	}
	topo, err := topology.New(topoCfg)
	if err != nil {
		fail(err)
	}
	eng, err := engine.New(engine.Config{Plane: pl, Topo: topo, Seed: seed})
	if err != nil {
		fail(err)
	}
	rng := stats.NewRNG(seed + 3)
	pool := topo.LinksOfClass(topology.L1Down)
	for i := 0; i < failures; i++ {
		l := pool[rng.Intn(len(pool))]
		if err := eng.InjectFailure(l, rate); err != nil {
			fail(err)
		}
		fmt.Printf("injected %.1f%% loss on %s\n", rate*100, topo.LinkName(l))
	}
	ctr := &metrics.TransportCounters{}
	ctx, stopSignals := runutil.SignalContext(context.Background())
	defer stopSignals()
	fmt.Printf("streaming %d epochs to %s (session %d)\n", epochs, addr, session)
	err = ingest.RunAgent(ctx, ingest.AgentConfig{
		Engine:   eng,
		Addr:     addr,
		Session:  session,
		Grace:    grace,
		Epochs:   epochs,
		Seed:     seed,
		Counters: ctr,
	})
	if err != nil && err != context.Canceled {
		fail(err)
	}
	fmt.Printf("session done: %d frames sent (%d replayed) in %d writes, %d dials (%d failed), %d reconnects, %d resumes\n",
		ctr.FramesSent.Load(), ctr.FramesResent.Load(), ctr.Writes.Load(), ctr.Dials.Load(),
		ctr.DialFailures.Load(), ctr.Reconnects.Load(), ctr.Resumes.Load())
}

func must(t *vigil.Topology, err error) *vigil.Topology {
	if err != nil {
		fail(err)
	}
	return t
}

func fail(err error) {
	if profiler != nil {
		profiler.Stop() // flush any running CPU profile before exiting
	}
	fmt.Fprintln(os.Stderr, "vigil-agents:", err)
	os.Exit(1)
}
