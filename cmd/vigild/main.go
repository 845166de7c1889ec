// vigild is the always-on ingest daemon: it wraps the plane-agnostic
// epoch engine behind the streaming ingest service (internal/ingest),
// settling epochs on a watermark while surviving lossy, late, duplicated
// and crashing agents, and exposes its counters on a Prometheus-style
// /metrics endpoint.
//
// With the fault flags at zero the settled epochs are bit-identical to the
// batch engine's; the fault flags inject seeded, reproducible chaos on the
// agent→collector path to exercise (and observe, via /metrics) the
// robustness machinery.
//
// Usage:
//
//	vigild -epochs 50                        # 50 epochs, flow plane, then exit
//	vigild -epochs 0 -interval 500ms         # run until SIGINT
//	vigild -plane packet -epochs 20
//	vigild -drop 0.05 -duplicate 0.02 -retries 1
//	vigild -listen 127.0.0.1:9007            # serve /metrics while running
//
// With -collector-listen, vigild instead serves the networked ingest
// transport (internal/transport): remote vigil-agents sessions stream
// reports and cycle tokens over resumable TCP sessions, epochs settle on
// the same watermark machinery, and -checkpoint makes the settle state
// durable — a restarted vigild resumes mid-cycle from the checkpoint
// without re-settling or dropping epochs:
//
//	vigild -collector-listen 127.0.0.1:9009 -checkpoint /var/run/vigild.ckpt \
//	       -sessions 1 -listen 127.0.0.1:9007
//
// SIGINT or SIGTERM stops the epoch loop; every started epoch still
// settles and the final counters are printed before exit. A second signal
// force-kills.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/metrics"
	"vigil/internal/prof"
	"vigil/internal/runutil"
	"vigil/internal/scenario"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vigild:", err)
		os.Exit(1)
	}
}

// epochSink is the settle sink of both modes. It feeds each settled epoch
// into the exporter — the vote ranking resolved to link names (with
// Algorithm 1's detected set flagged), and the detection scored against the
// epoch's injected-failure ground truth as the scenario's conformance point
// — and, unless quiet, prints its line to stdout.
func epochSink(stdout io.Writer, exp *metrics.EpochExporter, topo *topology.Topology, scenarioName string, quiet bool) func(*engine.EpochResult) {
	return func(res *engine.EpochResult) {
		detected := make(map[topology.LinkID]bool, len(res.Detected))
		for _, l := range res.Detected {
			detected[l] = true
		}
		// Only the links the exporter keeps are worth a name: a datacenter
		// epoch ranks thousands.
		top := res.Ranking[:min(len(res.Ranking), exp.TopK())]
		ranked := make([]metrics.RankedLink, 0, len(top))
		for _, lv := range top {
			ranked = append(ranked, metrics.RankedLink{
				Link:     topo.LinkName(lv.Link),
				Votes:    lv.Votes,
				Detected: detected[lv.Link],
			})
		}
		exp.ObserveEpoch(int64(res.Epoch), ranked)
		exp.ObserveConformance(scenarioName, metrics.ScoreDetection(res.Detected, res.FailedLinks))
		if !quiet {
			fmt.Fprintf(stdout, "epoch %4d settled: %4d reports, %d detected, %d verdicts\n",
				res.Epoch, len(res.Reports), len(res.Detected), len(res.Verdicts))
		}
	}
}

// serveMetrics serves /metrics on addr, rendering each source in turn, and
// returns a function that shuts the endpoint down. An empty addr serves
// nothing.
func serveMetrics(stdout io.Writer, addr string, sources ...func(io.Writer) error) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, write := range sources {
			write(w)
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}, nil
}

// runCollector serves the networked ingest transport on addr: remote agent
// sessions drive the epochs; vigild settles, checkpoints, and exports. cfg
// arrives with everything but the listener and the transport counters.
func runCollector(stdout io.Writer, addr, metricsAddr string, exporter *metrics.EpochExporter, cfg ingest.CollectorConfig) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	tctr := &metrics.TransportCounters{}
	cfg.Listener, cfg.Transport = ln, tctr
	col, err := ingest.ServeCollector(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingest collector on %s (%d sessions", col.Addr(), cfg.Sessions)
	if cfg.CheckpointPath != "" {
		fmt.Fprintf(stdout, ", two-slot checkpoint file %s: one pwrite + fdatasync per settle", cfg.CheckpointPath)
	}
	fmt.Fprintln(stdout, ")")

	stopMetrics, err := serveMetrics(stdout, metricsAddr, col.Counters().WritePrometheus, tctr.WritePrometheus, exporter.WritePrometheus)
	if err != nil {
		col.Close()
		return err
	}

	ctx, stopSignals := runutil.SignalContext(context.Background())
	waitErr := col.Wait(ctx)
	stopSignals()
	col.Close()
	if waitErr == context.Canceled {
		fmt.Fprintln(os.Stderr, "vigild: interrupted; collector state is on the checkpoint")
	}
	stopMetrics()
	c := col.Counters()
	fmt.Fprintf(stdout, "\nsettled %d epochs: received %d, accepted %d, duplicates %d, lost %d, retries %d, recovered %d\n",
		c.SettledEpochs.Load(), c.Received.Load(), c.Accepted.Load(),
		c.Duplicates.Load(), c.Lost.Load(), c.Retries.Load(), c.Recovered.Load())
	fmt.Fprintf(stdout, "transport: %d frames in, %d dropped stale, %d acks, %d checkpoints, %d accept retries\n",
		tctr.FramesReceived.Load(), tctr.FramesDropped.Load(), tctr.AcksSent.Load(),
		tctr.Checkpoints.Load(), tctr.AcceptRetries.Load())
	if waitErr != context.Canceled {
		return waitErr // e.g. a checkpoint that could not be written
	}
	return nil
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("vigild", flag.ContinueOnError)
	plane := fs.String("plane", "flow", "evaluation plane: flow or packet")
	epochs := fs.Int("epochs", 50, "epochs to run (0 = until SIGINT)")
	seed := fs.Uint64("seed", 7, "engine seed")
	failures := fs.Int("failures", 2, "failed links to inject")
	rate := fs.Float64("rate", 0.05, "failed-link drop rate")
	interval := fs.Duration("interval", 0, "wall-clock pacing between epochs (0 = back to back)")
	grace := fs.Int("grace", 0, "watermark grace window in epochs (0 = default 2)")
	retries := fs.Int("retries", 0, "max gap re-request rounds per epoch")
	listen := fs.String("listen", "", "address for the /metrics endpoint (empty = off)")
	quiet := fs.Bool("quiet", false, "suppress per-epoch lines")
	scenarioLabel := fs.String("scenario", "static", "scenario label on the conformance gauges")
	topK := fs.Int("top-links", 10, "ranked links exported per settled epoch")

	collectorListen := fs.String("collector-listen", "", "serve the networked ingest transport on this address (empty = in-process engine)")
	checkpoint := fs.String("checkpoint", "", "two-slot checkpoint file for collector crash recovery, created (8 KiB, preallocated) if missing; every settle is one pwrite + fdatasync into it (collector mode)")
	sessions := fs.Int("sessions", 1, "agent sessions expected (collector mode)")

	faultSeed := fs.Uint64("fault-seed", 1, "fault layer seed")
	drop := fs.Float64("drop", 0, "report drop probability")
	duplicate := fs.Float64("duplicate", 0, "report duplicate probability")
	delay := fs.Float64("delay", 0, "report delay probability")
	delayMax := fs.Int("delay-max", 2, "max delay in epochs")
	burst := fs.Float64("burst", 0, "per-agent-epoch burst-loss probability")
	crash := fs.Float64("crash", 0, "per-agent-epoch crash probability")

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

	pl := engine.Plane(*plane)
	if !pl.Valid() {
		return fmt.Errorf("unknown plane %q (want flow or packet)", *plane)
	}
	topo, err := topology.New(scenario.QuickTopoFor(pl))
	if err != nil {
		return err
	}

	exporter := metrics.NewEpochExporter(*topK)
	sink := epochSink(stdout, exporter, topo, *scenarioLabel, *quiet)
	if *collectorListen != "" {
		return runCollector(stdout, *collectorListen, *listen, exporter, ingest.CollectorConfig{
			Sessions: *sessions, Grace: *grace, MaxRetries: *retries, CheckpointPath: *checkpoint, Sink: sink,
		})
	}

	eng, err := engine.New(engine.Config{Plane: pl, Topo: topo, Seed: *seed})
	if err != nil {
		return err
	}
	rng := stats.NewRNG(*seed + 3)
	pool := topo.LinksOfClass(topology.L1Down)
	links, err := runutil.DistinctLinks(*failures, len(pool), func() topology.LinkID { return pool[rng.Intn(len(pool))] })
	if err != nil {
		return err
	}
	for _, l := range links {
		if err := eng.InjectFailure(l, *rate); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "injected %.1f%% loss on %s\n", *rate*100, topo.LinkName(l))
	}

	svc, err := ingest.New(ingest.Config{
		Engine:     eng,
		Grace:      *grace,
		MaxRetries: *retries,
		Interval:   *interval,
		Faults: ingest.FaultConfig{
			Seed:      *faultSeed,
			Drop:      *drop,
			Duplicate: *duplicate,
			Delay:     *delay,
			DelayMax:  *delayMax,
			Burst:     *burst,
			Crash:     *crash,
		},
		Sink: sink,
	})
	if err != nil {
		return err
	}

	stopMetrics, err := serveMetrics(stdout, *listen, svc.Counters().WritePrometheus, exporter.WritePrometheus)
	if err != nil {
		return err
	}

	ctx, stopSignals := runutil.SignalContext(context.Background())
	err = svc.Run(ctx, *epochs)
	stopSignals()
	stopMetrics()
	if err == context.Canceled {
		fmt.Fprintln(os.Stderr, "vigild: interrupted; pipeline drained")
	} else if err != nil {
		return err
	}

	c := svc.Counters()
	fmt.Fprintf(stdout, "\nsettled %d epochs: received %d, accepted %d, duplicates %d, late %d (+%d past grace), lost %d, retries %d, recovered %d\n",
		c.SettledEpochs.Load(), c.Received.Load(), c.Accepted.Load(),
		c.Duplicates.Load(), c.Late.Load(), c.LateDropped.Load(),
		c.Lost.Load(), c.Retries.Load(), c.Recovered.Load())
	return nil
}
