// vigil-agents runs the deployment shape of the paper's Figure 2 on one
// machine: emulated hosts run 007 agents over the packet fabric of the §7
// test cluster and ship their vote reports over real loopback TCP — the
// resumable ingest transport — to a collector it starts on -listen, which
// settles each epoch and prints the verdicts.
//
// With -collector, vigil-agents starts no collector of its own and becomes
// a remote reporter for a vigild networked collector (vigild
// -collector-listen ...) instead: the same agent, the same wire protocol,
// on the topology vigild uses for -plane. Either way the session survives
// partitions and collector restarts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/metrics"
	"vigil/internal/prof"
	"vigil/internal/runutil"
	"vigil/internal/scenario"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-agents:", err)
		os.Exit(1)
	}
}

// run writes what the seed fixes to stdout — the injected links, every
// settled epoch, the frames sent — and what the machine decides to stderr:
// the listen address and the connection counts.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("vigil-agents", flag.ContinueOnError)
	epochs := fs.Int("epochs", 3, "epochs to run")
	failures := fs.Int("failures", 2, "failed links to inject")
	rate := fs.Float64("rate", 0.03, "failed-link drop rate")
	conns := fs.Int("conns", 5, "connections per host per epoch (without -collector)")
	seed := fs.Uint64("seed", 1, "random seed")
	listen := fs.String("listen", "127.0.0.1:0", "collector listen address (without -collector)")
	collector := fs.String("collector", "", "remote vigild collector address (starts no local collector)")
	plane := fs.String("plane", "flow", "engine plane in -collector mode: flow or packet")
	session := fs.Uint64("session", 0, "transport session ID")
	grace := fs.Int("grace", 0, "collector grace window (0 = default 2)")
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

	// Without -collector: the packet plane on the paper's test cluster. With
	// it, the topology must match the collector's (vigild uses the same quick
	// config per plane), and the collector's grace window must match -grace.
	cfg := engine.Config{Plane: engine.Packet, Seed: *seed, Workload: traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: *conns, Hi: *conns},
		PacketsPerFlow: traffic.IntRange{Lo: 50, Hi: 100},
	}}
	topoCfg := topology.TestClusterConfig
	if *collector != "" {
		cfg = engine.Config{Plane: engine.Plane(*plane), Seed: *seed}
		if !cfg.Plane.Valid() {
			return fmt.Errorf("unknown plane %q (want flow or packet)", *plane)
		}
		topoCfg = scenario.QuickTopoFor(cfg.Plane)
	}
	topo, err := topology.New(topoCfg)
	if err != nil {
		return err
	}
	cfg.Topo = topo
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(*seed + 3)
	pool := topo.LinksOfClass(topology.L1Down)
	links, err := runutil.DistinctLinks(*failures, len(pool), func() topology.LinkID { return pool[rng.Intn(len(pool))] })
	if err != nil {
		return err
	}
	injected := make(map[topology.LinkID]bool)
	for _, l := range links {
		if err := eng.InjectFailure(l, *rate); err != nil {
			return err
		}
		injected[l] = true
		fmt.Fprintf(stdout, "injected %.1f%% loss on %s\n", *rate*100, topo.LinkName(l))
	}

	// First Ctrl-C stops the session; a second one force-kills.
	ctx, stopSignals := runutil.SignalContext(context.Background())
	defer stopSignals()

	addr := *collector
	var col *ingest.NetCollector
	if addr == "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		col, err = ingest.ServeCollector(ingest.CollectorConfig{
			Listener: ln, Grace: *grace,
			Sink: func(res *engine.EpochResult) { printEpoch(stdout, topo, injected, res) },
		})
		if err != nil {
			return err
		}
		defer col.Close()
		addr = col.Addr()
		fmt.Fprintf(stderr, "analysis collector listening on %s\n", addr)
	}

	ctr := &metrics.TransportCounters{}
	fmt.Fprintf(stderr, "reporting to %s\n", addr)
	fmt.Fprintf(stdout, "streaming %d epochs (session %d)\n", *epochs, *session)
	err = ingest.RunAgent(ctx, ingest.AgentConfig{
		Engine:   eng,
		Addr:     addr,
		Session:  *session,
		Grace:    *grace,
		Epochs:   *epochs,
		Seed:     *seed,
		Counters: ctr,
	})
	if err == nil && col != nil {
		err = col.Wait(ctx) // the sink has printed every epoch once this returns
	}
	if err != nil && err != context.Canceled {
		return err
	}
	fmt.Fprintf(stdout, "session done: %d frames sent (%d replayed)\n", ctr.FramesSent.Load(), ctr.FramesResent.Load())
	fmt.Fprintf(stderr, "%d writes, %d dials (%d failed), %d reconnects, %d resumes\n",
		ctr.Writes.Load(), ctr.Dials.Load(), ctr.DialFailures.Load(), ctr.Reconnects.Load(), ctr.Resumes.Load())
	return nil
}

// printEpoch is the local collector's sink: the top of the vote ranking
// with the injected links marked, and Algorithm 1's detections.
func printEpoch(w io.Writer, topo *topology.Topology, injected map[topology.LinkID]bool, res *engine.EpochResult) {
	fmt.Fprintf(w, "\nepoch %d: %d reports over TCP\n", res.Epoch, len(res.Reports))
	for i, lv := range res.Ranking {
		if i >= 5 {
			break
		}
		marker := ""
		if injected[lv.Link] {
			marker = "  <-- injected"
		}
		fmt.Fprintf(w, "  %6.2f  %s%s\n", lv.Votes, topo.LinkName(lv.Link), marker)
	}
	fmt.Fprintf(w, "  detected: %d link(s)\n", len(res.Detected))
	for _, l := range res.Detected {
		fmt.Fprintf(w, "    %s\n", topo.LinkName(l))
	}
}
