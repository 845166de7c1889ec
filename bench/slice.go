package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/metrics"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// sliceConfig is everything a slice is told; its inputs derive from seed.
type sliceConfig struct {
	workload string
	seed     uint64
	epochs   int  // measured epochs
	traced   bool // record spans and replay the stage costs
	twin     bool // also run the same-seed batch twin (batch workloads)
	tiny     bool // test scale: small topologies
	outDir   string
}

// sliceResult is what a slice process prints as its last line.
type sliceResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checked   int                `json:"checked_epochs"` // epochs held to the batch analysis
	Errors    []string           `json:"errors,omitempty"`
}

// edge is the process state at one end of the measured window.
type edge struct {
	at                     time.Duration
	cpu                    time.Duration
	objects, bytes, cycles uint64
	ingest                 ingestSnap
	framesSent             int64
}

// ingestSnap is the ingest counters the per-epoch rates are taken from.
type ingestSnap struct {
	accepted, duplicates, late, retries, recovered, lost int64
}

func snapIngest(c *metrics.IngestCounters) ingestSnap {
	if c == nil {
		return ingestSnap{}
	}
	return ingestSnap{
		accepted: c.Accepted.Load(), duplicates: c.Duplicates.Load(), late: c.Late.Load(),
		retries: c.Retries.Load(), recovered: c.Recovered.Load(), lost: c.Lost.Load(),
	}
}

// allocSampler reads the runtime's allocation counters without stopping
// the world, so it can run at every epoch of a traced slice.
type allocSampler struct{ s [3]rtmetrics.Sample }

func newAllocSampler() *allocSampler {
	a := &allocSampler{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	a.s[2].Name = "/gc/cycles/total:gc-cycles"
	return a
}

func (a *allocSampler) read() (objects, bytes, cycles uint64) {
	rtmetrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64(), a.s[2].Value.Uint64()
}

// run is one slice in progress.
type run struct {
	cfg  sliceConfig
	sp   *spec
	par  int // GOMAXPROCS and every Parallelism knob
	rec  *recorder
	root int32 // span of the epoch loop

	eng                   *timedEngine
	warm, measured, total int
	open, close           edge
	rssMB                 float64
	allocs                *allocSampler
	ingestCtr             *metrics.IngestCounters
	transportCtr          *metrics.TransportCounters

	setup map[string]float64 // set-up stage times, ms
	// codecMsPerEpoch is the frame codec's cost for one epoch's reports and
	// token, from the transport stage.
	codecMsPerEpoch float64
	res             sliceResult
	verdict         []float64 // ms, one per measured epoch
}

// derive gives the slice's independent seeds: every random choice of the
// inputs hangs off -seed through a named stream.
func (r *run) derive(stream uint64) uint64 { return stats.DeriveRNG(r.cfg.seed, stream).Uint64() }

const (
	streamEngine = iota + 1
	streamLinks
	streamFaults
	streamJitter
)

func (r *run) failf(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// takeEdge samples the process at a window edge. The clock is read last
// when the window opens and first when it closes, so the sampling itself
// stays outside the window.
func (r *run) takeEdge(opening bool) edge {
	var e edge
	if !opening {
		e.at = since()
	}
	e.cpu = cpuTime()
	e.objects, e.bytes, e.cycles = r.allocs.read()
	e.ingest = snapIngest(r.ingestCtr)
	if r.transportCtr != nil {
		e.framesSent = r.transportCtr.FramesSent.Load()
	}
	if opening {
		e.at = since()
	}
	return e
}

// mark is the timedEngine's onEnter hook: the measured window opens on the
// entry of Step(warm) and closes on the entry of Step(warm+measured), so
// it holds exactly `measured` whole cycles.
func (r *run) mark(epoch int) {
	switch epoch {
	case r.warm:
		r.open = r.takeEdge(true)
	case r.warm + r.measured:
		r.close = r.takeEdge(false)
		rss, err := peakRSSMB()
		if err != nil {
			r.failf("peak rss: %v", err)
		}
		r.rssMB = rss
	}
}

// pickLinks chooses n distinct links of a class from the seed.
func (r *run) pickLinks(topo *topology.Topology, class topology.LinkClass, n int) []topology.LinkID {
	cands := topo.LinksOfClass(class)
	perm := stats.DeriveRNG(r.cfg.seed, streamLinks).Perm(len(cands))
	out := make([]topology.LinkID, 0, n)
	for _, i := range perm[:min(n, len(cands))] {
		out = append(out, cands[i])
	}
	return out
}

// runSlice builds a workload from its seed, warms it up, measures a fixed
// number of epochs and checks the outputs.
func runSlice(cfg sliceConfig) (*sliceResult, error) {
	sp := specByName(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, sp: sp, par: min(runtime.NumCPU(), 4), allocs: newAllocSampler(), setup: map[string]float64{}}
	runtime.GOMAXPROCS(r.par)
	if cfg.traced {
		r.rec = &recorder{}
	}
	r.warm, r.measured = sp.warm, cfg.epochs
	if cfg.tiny {
		r.warm = min(r.warm, 3)
	}
	r.res = sliceResult{Workload: sp.name, Traced: cfg.traced, E2E: map[string]float64{}, Samples: map[string]int{}}
	if cfg.traced {
		r.res.Layer = map[string]float64{}
		for _, m := range layerMetrics {
			r.res.Layer[m.name] = 0
		}
	}

	var err error
	switch sp.kind {
	case kindWire, kindLanes:
		err = r.runService()
	case kindFlowDelta, kindPacket:
		err = r.runBatch()
	}
	if err != nil {
		return nil, err
	}
	if r.rec != nil {
		path := filepath.Join(cfg.outDir, "trace-"+sp.name+".json")
		if err := r.rec.write(path, sp.name, newStamp(cfg.seed, 1, r.measured)); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return &r.res, nil
}

// timedSetup runs one set-up stage inside a span and keeps its duration.
func (r *run) timedSetup(name string, fn func()) {
	r.setup[name] = ms(r.rec.timed(name, 0, -1, fn))
}

// finish turns the window edges and the per-epoch stamps into the
// end-to-end metrics, and the process counters into their per-layer rates.
func (r *run) finish(settled []int) {
	window := r.close.at - r.open.at
	n := float64(r.measured)
	var sent, got int64
	for x := r.warm; x < r.warm+r.measured; x++ {
		sent += int64(r.eng.reports[x])
		got += int64(settled[x])
	}
	r.res.Attempted = sent
	r.res.Failed += sent - got

	// The box shares its cores and caches, and its neighbours take them in
	// bursts of tenths of a second to minutes: the whole-window rate of
	// back-to-back slices differs by up to a third. Interference only ever
	// slows a program down, so its fastest stretch is the closest reading
	// of its own cost. The window is cut into chunks of equal epoch count,
	// each long enough (about 0.15 s) to hold the program's periodic costs,
	// GC cycles and checkpoints; the slice reports the rate of its fastest
	// chunk and the lowest of the chunks' median verdict latencies. The
	// whole-window rate stays visible as window.epochs_per_s_mean.
	chunks := min(chunksPerSlice, r.measured)
	per := r.measured / chunks
	var bestRate float64
	bestVerdict := math.Inf(1)
	for c := 0; c < chunks; c++ {
		lo := c * per
		took := r.eng.enter[r.warm+lo+per] - r.eng.enter[r.warm+lo]
		bestRate = max(bestRate, float64(per)/took.Seconds())
		bestVerdict = min(bestVerdict, median(r.verdict[lo:lo+per]))
	}
	e := r.res.E2E
	e["epochs_per_s"] = bestRate
	e["verdict_ms_p50"] = bestVerdict
	e["setup_s"] = r.open.at.Seconds()
	e["peak_rss_mb"] = r.rssMB
	if sent > 0 {
		e["delivered_share"] = float64(got) / float64(sent)
	}
	r.res.Samples["epochs_per_s"] = chunks
	r.res.Samples["verdict_ms_p50"] = chunks
	r.res.Samples["setup_s"] = 1
	r.res.Samples["peak_rss_mb"] = 1
	r.res.Samples["delivered_share"] = int(sent)
	if !r.cfg.traced {
		return
	}

	l := r.res.Layer
	l["topology.build_ms"] = r.setup["topology.new"]
	l["engine.new_ms"] = r.setup["engine.new"]
	l["netem.full_step_ms"] = r.setup["netem.full_step"]
	cycles := make([]float64, 0, r.measured)
	steps := make([]float64, 0, r.measured)
	var reports, flows, drops float64
	for x := r.warm; x < r.warm+r.measured; x++ {
		cycles = append(cycles, ms(r.eng.enter[x+1]-r.eng.enter[x]))
		steps = append(steps, ms(r.eng.self[x]))
		reports += float64(r.eng.reports[x])
		flows += float64(r.eng.flows[x])
		drops += float64(r.eng.drops[x])
	}
	cycle := median(cycles)
	l["ingest.cycle_ms_p50"] = cycle
	l["engine.step_ms_p50"] = median(steps)
	l["engine.step_share"] = median(steps) / cycle
	l["engine.reports_per_epoch"] = reports / n
	l["engine.flows_per_epoch"] = flows / n
	if r.sp.kind == kindPacket {
		l["cluster.drops_per_epoch"] = drops / n
	}
	if _, replay := r.eng.Engine.(*replayEngine); replay {
		l["loadgen.step_ms_p50"] = median(steps)
	}
	l["ingest.verdict_ms_tail"] = tail(r.verdict)
	r.res.Samples["ingest.verdict_ms_tail"] = len(r.verdict)

	l["proc.cpu_ms_per_epoch"] = ms(r.close.cpu-r.open.cpu) / n
	l["proc.allocs_per_epoch"] = float64(r.close.objects-r.open.objects) / n
	l["proc.alloc_kb_per_epoch"] = float64(r.close.bytes-r.open.bytes) / 1024 / n
	l["proc.gc_cycles_per_epoch"] = float64(r.close.cycles-r.open.cycles) / n
	l["window.epochs_per_s_mean"] = n / window.Seconds()

	a, b := r.open.ingest, r.close.ingest
	l["ingest.accepted_per_epoch"] = float64(b.accepted-a.accepted) / n
	l["ingest.duplicates_per_epoch"] = float64(b.duplicates-a.duplicates) / n
	l["ingest.late_per_epoch"] = float64(b.late-a.late) / n
	l["ingest.retries_per_epoch"] = float64(b.retries-a.retries) / n
	l["ingest.recovered_per_epoch"] = float64(b.recovered-a.recovered) / n
	l["ingest.lost_per_epoch"] = float64(b.lost-a.lost) / n
	if gaps := (b.recovered - a.recovered) + (b.lost - a.lost); gaps > 0 {
		l["ingest.recovered_share"] = float64(b.recovered-a.recovered) / float64(gaps)
	}
	if r.transportCtr != nil {
		l["transport.frames_per_epoch"] = float64(r.close.framesSent-r.open.framesSent) / n
		l["transport.frames_resent"] = float64(r.transportCtr.FramesResent.Load())
		l["transport.resumes"] = float64(r.transportCtr.Resumes.Load())
	}
	// What the cycle spends outside the engine and the analysis: lanes,
	// queueing, gap detection and the cycle-end handshake.
	l["ingest.overhead_ms_per_epoch"] = cycle - l["engine.step_ms_p50"] - l["analysis.analyze_ms_p50"]
	l["analysis.analyze_share"] = l["analysis.analyze_ms_p50"] / cycle
	if r.sp.kind == kindWire {
		// Syscalls, goroutine hops and acks: what is left of the overhead
		// once the codec and the checkpoint are taken out.
		l["transport.codec_share"] = r.codecMsPerEpoch / cycle
		l["transport.commit_share"] = l["transport.commit_ms_p50"] / cycle
		l["transport.wire_overhead_ms_per_epoch"] = l["ingest.overhead_ms_per_epoch"] - r.codecMsPerEpoch - l["transport.commit_ms_p50"]
	}
}

// --- service workloads ---------------------------------------------------

// sinkLog is the Sink of the service workloads: it stamps every verdict
// and keeps a sample of the settled epochs for the checks and the stage
// replays. It runs on the collector's goroutine, inside the cycle, so it
// does nothing else.
type sinkLog struct {
	at      []time.Duration
	epochs  []int
	reports []int
	stride  int
	kept    []*engine.EpochResult

	rec     *recorder
	parent  int32
	lastRet *atomic.Int64
}

func (s *sinkLog) sink(res *engine.EpochResult) {
	now := since()
	s.at = append(s.at, now)
	s.epochs = append(s.epochs, res.Epoch)
	s.reports = append(s.reports, len(res.Reports))
	if res.Epoch%s.stride == 0 {
		s.kept = append(s.kept, res)
	}
	s.rec.add("ingest.settle", s.parent, res.Epoch, time.Duration(s.lastRet.Load()), now)
}

// traceEpochs is the length of the recorded trace; keepSamples bounds how
// many settled epochs a slice keeps.
const (
	traceEpochs = 16
	keepSamples = 16
)

func (r *run) runService() error {
	sp := r.sp
	grace := sp.grace
	// Cool-down epochs after the window give every measured epoch its
	// closing cycle (x+Grace) as a live cycle, so no verdict sample comes
	// from a drain cycle.
	r.total = r.warm + r.measured + grace

	var topo *topology.Topology
	var err error
	r.timedSetup("topology.new", func() { topo, err = topology.New(sp.topoConfig(r.cfg.tiny)) })
	if err != nil {
		return err
	}
	var source engine.Engine
	r.timedSetup("engine.new", func() {
		source, err = engine.New(engine.Config{Topo: topo, Seed: r.derive(streamEngine), Parallelism: r.par})
	})
	if err != nil {
		return err
	}
	for _, l := range r.pickLinks(topo, topology.L1Up, sp.failures) {
		if err := source.InjectFailure(l, sp.dropRate(r.cfg.tiny)); err != nil {
			return err
		}
	}
	var replay *replayEngine
	r.timedSetup("trace.record", func() {
		start := since()
		replay = recordTrace(source, 1)
		r.setup["netem.full_step"] = ms(since() - start)
		more := recordTrace(source, traceEpochs-1)
		replay.trace = append(replay.trace, more.trace...)
	})

	// An odd stride visits every epoch of the 16-epoch trace.
	r.root = r.rec.begin("service.run")
	sink := &sinkLog{stride: max(r.total/keepSamples, 1) | 1, rec: r.rec, parent: r.root}
	r.eng = &timedEngine{Engine: replay, onEnter: r.mark, rec: r.rec, parent: r.root}
	sink.lastRet = &r.eng.lastRet

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r.ingestCtr = &metrics.IngestCounters{}
	var dir string // the checkpoint's per-slice directory, inside the checkout
	switch sp.kind {
	case kindLanes:
		faults := sp.faults
		faults.Seed = r.derive(streamFaults)
		svc, err := ingest.New(ingest.Config{
			Engine: r.eng, Grace: grace, Lanes: 4, MaxRetries: sp.maxRetries,
			Faults: faults, Sink: sink.sink, Counters: r.ingestCtr,
		})
		if err != nil {
			return err
		}
		if err := svc.Run(ctx, r.total); err != nil {
			return fmt.Errorf("ingest.Service.Run: %w", err)
		}
	case kindWire:
		if dir, err = os.MkdirTemp(r.cfg.outDir, "slice-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		col, err := ingest.ServeCollector(ingest.CollectorConfig{
			Listener: ln, Grace: grace, Parallelism: r.par,
			CheckpointPath: filepath.Join(dir, "checkpoint"),
			Sink:           sink.sink, Counters: r.ingestCtr,
		})
		if err != nil {
			return err
		}
		defer col.Close()
		r.transportCtr = &metrics.TransportCounters{}
		if err := ingest.RunAgent(ctx, ingest.AgentConfig{
			Engine: r.eng, Addr: col.Addr(), Grace: grace, Epochs: r.total,
			Seed: r.derive(streamJitter), Counters: r.transportCtr,
		}); err != nil {
			return fmt.Errorf("ingest.RunAgent: %w", err)
		}
		if err := col.Wait(ctx); err != nil {
			return fmt.Errorf("collector did not finish: %w", err)
		}
	}
	r.rec.end(r.root)

	// Exactly-once, in-order settle of every epoch that was run.
	if len(sink.epochs) != r.total {
		r.failf("settled %d epochs, ran %d", len(sink.epochs), r.total)
		return nil
	}
	for i, e := range sink.epochs {
		if e != i {
			r.failf("settle %d delivered epoch %d: not in order, exactly once", i, e)
			return nil
		}
	}
	// Conservation over the whole run: every emitted report was accepted
	// or counted lost, and what was accepted is what settled.
	var emitted, settled int64
	for x := 0; x < r.total; x++ {
		emitted += int64(r.eng.reports[x])
		settled += int64(sink.reports[x])
	}
	if acc, lost := r.ingestCtr.Accepted.Load(), r.ingestCtr.Lost.Load(); acc+lost != emitted || acc != settled {
		r.failf("conservation: accepted %d + lost %d != emitted %d, or accepted != settled %d", acc, lost, emitted, settled)
	}
	for x := r.warm; x < r.warm+r.measured; x++ {
		r.verdict = append(r.verdict, ms(sink.at[x]-r.eng.ret[x+grace]))
	}
	r.checkSettled(replay, sink.kept, sp.kind == kindWire)

	if r.cfg.traced {
		sets := make([][]vote.Report, len(sink.kept))
		for i, res := range sink.kept {
			sets[i] = res.Reports
		}
		r.stageAnalysis(sets, replay.Analysis())
		if sp.kind == kindWire {
			r.stageTransport(replay, dir)
		}
	}
	r.finish(sink.reports)
	return nil
}

// --- batch workloads -----------------------------------------------------

// deltaRates are the two rates a flow-dc-delta link flips between.
var deltaRates = [2]float64{0.003, 0.005}

func (r *run) runBatch() error {
	sp := r.sp
	r.total = r.warm + r.measured

	var topo *topology.Topology
	var err error
	r.timedSetup("topology.new", func() { topo, err = topology.New(sp.topoConfig(r.cfg.tiny)) })
	if err != nil {
		return err
	}
	cfg := engine.Config{Topo: topo, Seed: r.derive(streamEngine), Parallelism: r.par}
	var links []topology.LinkID
	if sp.kind == kindFlowDelta {
		cfg.Incremental = true
		cfg.TracerouteCap = 10
		links = r.pickLinks(topo, topology.L1Up, sp.failures)
	} else {
		cfg.Plane = engine.Packet
		cfg.Workload = traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 4, Hi: 4},
			PacketsPerFlow: traffic.IntRange{Lo: 75, Hi: 150},
		}
		links = r.pickLinks(topo, topology.L1Down, sp.failures)
	}
	// prepare puts an engine into epoch i's input state: every link failed
	// at the low rate before epoch 0, then on the delta workload one link's
	// rate flipped per epoch, rotating over the links.
	prepare := func(eng engine.Engine, i int) error {
		if i == 0 {
			for _, l := range links {
				if err := eng.InjectFailure(l, sp.dropRate(r.cfg.tiny)); err != nil {
					return err
				}
			}
			return nil
		}
		if sp.kind != kindFlowDelta {
			return nil
		}
		return eng.InjectFailure(links[i%len(links)], deltaRates[(i/len(links)+1)%2])
	}

	var inner engine.Engine
	r.timedSetup("engine.new", func() { inner, err = engine.New(cfg) })
	if err != nil {
		return err
	}
	r.root = r.rec.begin("batch.run")
	r.eng = &timedEngine{Engine: inner, onEnter: r.mark, rec: r.rec, parent: r.root}
	opts := inner.Analysis()

	const keepFirst = 3 // epochs the twin re-runs
	var kept []*engine.EpochResult
	analyze := make([]float64, 0, r.total)
	stepAllocs := make([]float64, 0, r.total)
	stepKB := make([]float64, 0, r.total)
	settled := make([]int, r.total)
	for i := 0; i < r.total; i++ {
		start := since()
		if err := prepare(r.eng, i); err != nil {
			return err
		}
		var o0, b0 uint64
		if r.cfg.traced {
			o0, b0, _ = r.allocs.read()
		}
		res := r.eng.Step(nil)
		if r.cfg.traced {
			o1, b1, _ := r.allocs.read()
			stepAllocs = append(stepAllocs, float64(o1-o0))
			stepKB = append(stepKB, float64(b1-b0)/1024)
		}
		an := analysis.Analyze(res.Reports, opts)
		end := since()
		r.rec.add("analysis.analyze", r.root, i, r.eng.ret[i], end)
		analyze = append(analyze, ms(end-r.eng.ret[i]))
		if i >= r.warm {
			r.verdict = append(r.verdict, ms(end-start))
		}
		settled[i] = len(an.Verdicts)
		if i < keepFirst {
			res.Ranking, res.Detected, res.Verdicts = an.Ranking, an.Detected, an.Verdicts
			kept = append(kept, res)
		}
		if i == 0 && sp.kind == kindFlowDelta {
			r.setup["netem.full_step"] = ms(r.eng.ret[0] - r.eng.enter[0])
		}
	}
	r.mark(r.total)
	r.eng.enter = append(r.eng.enter, r.close.at) // closes the last cycle
	r.rec.end(r.root)

	if r.cfg.twin {
		twin, err := engine.New(cfg)
		if err != nil {
			return err
		}
		r.res.Checked = len(kept)
		for i, got := range kept {
			if err := prepare(twin, i); err != nil {
				return err
			}
			if want := twin.RunEpoch(); !sameEpoch(got, want) {
				r.failf("epoch %d: Step+Analyze differs from the same-seed batch RunEpoch twin", i)
				r.res.Failed += int64(len(got.Reports))
			}
		}
	}

	if r.cfg.traced {
		l := r.res.Layer
		measured := analyze[r.warm:]
		l["analysis.analyze_ms_p50"] = median(measured)
		r.res.Samples["analysis.analyze_ms_p50"] = len(measured)
		if sp.kind == kindFlowDelta {
			l["netem.delta_allocs_per_epoch"] = stats.Mean(stepAllocs[r.warm:])
			l["netem.delta_alloc_kb_per_epoch"] = stats.Mean(stepKB[r.warm:])
		}
		sets := make([][]vote.Report, len(kept))
		for i, res := range kept {
			sets[i] = res.Reports
		}
		r.stageAnalysis(sets, opts)
		if sp.kind == kindPacket {
			r.stagePacketPlane()
		}
	}
	r.finish(settled)
	return nil
}
