// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6 simulations, §7 test cluster, §8 production),
// plus the ablations DESIGN.md calls out. cmd/vigil-lab renders them and
// its golden transcript pins every quick-scale number; bench_test.go wraps
// each in a benchmark.
//
// Most of §6 is declared as values that one runner renders (sim.go), and
// every flow-plane simulator here comes from newSim.
//
// Runners are deterministic for a fixed Options.Seed and average over
// Options.Seeds independent repetitions, reporting mean and 95% CI like
// the paper's error bars.
package experiments

import (
	"fmt"
	"sort"

	"vigil/internal/analysis"
	"vigil/internal/metrics"
	"vigil/internal/netem"
	"vigil/internal/opt"
	"vigil/internal/par"
	"vigil/internal/report"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// Scale selects experiment size.
type Scale int

// Scales: Full reproduces the paper's parameters; Quick shrinks topology
// and repetition counts for benchmarks and smoke tests.
const (
	Full Scale = iota
	Quick
)

// Options configures a run.
type Options struct {
	Scale Scale
	Seeds int // repetitions; 0 means the scale default
	Seed  uint64
	// Parallelism bounds the worker pool that runs a sweep's seed
	// repetitions concurrently; 0 means runtime.GOMAXPROCS(0). Results are
	// identical at every setting — repetitions are independent and write
	// into per-seed slots.
	Parallelism int
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Scale == Quick {
		return 2
	}
	return 5
}

func (o Options) parallelism() int { return par.Workers(o.Parallelism) }

// innerParallelism spreads the worker budget between the seed pool and each
// seed's epoch engine: with at least as many repetitions as workers the
// epochs run single-threaded (the sweep already saturates the pool); a
// lone repetition gets the whole budget.
func (o Options) innerParallelism(reps int) int {
	p := o.parallelism()
	reps = max(reps, 1)
	if reps > p {
		return 1
	}
	return p / reps
}

func (o Options) topoConfig() topology.Config {
	if o.Scale == Quick {
		return topology.Config{Pods: 2, ToRsPerPod: 8, T1PerPod: 8, T2: 4, HostsPerToR: 8}
	}
	return topology.DefaultSimConfig
}

func (o Options) conns() int {
	if o.Scale == Quick {
		return 20
	}
	return 60
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	// Notes records paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

// Runner produces a Result.
type Runner struct {
	ID    string
	Title string
	Run   func(opts Options) (*Result, error)
}

var registry []Runner

func register(id, title string, run func(Options) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns every registered experiment in registration order.
func All() []Runner { return registry }

// Find returns the runner with the given ID.
func Find(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ---- shared simulation helpers ----

// failurePick chooses one repetition's failed links and their drop rates.
type failurePick func(rng *stats.RNG, topo *topology.Topology) map[topology.LinkID]float64

// simSpec describes one simulated condition; newSim fills in what it
// leaves unset.
type simSpec struct {
	topo     topology.Config
	workload traffic.Workload
	// pattern, when set, builds the workload's traffic pattern from the
	// repetition's own topology (a hot set or sink named by switch).
	pattern       func(*topology.Topology) traffic.Pattern
	noiseLo       float64
	noiseHi       float64
	tracerouteCap int
	failures      failurePick
}

// simOutcome aggregates one repetition's scores.
type simOutcome struct {
	acc007    float64
	accInt    float64
	det007    metrics.Detection
	detInt    metrics.Detection
	detBin    metrics.Detection
	flows     int
	failFlows int
	noiseErrs int
}

// newSim builds the flow-plane simulator for a spec, with the paper's
// defaults for what the spec leaves unset: noise U(0, 1e-6), uniform
// traffic, 60 connections per host, 100-packet flows. parallelism is the
// epoch engine's worker count — 1 when the caller is already fanning seeds
// out over the pool.
func newSim(spec simSpec, seed uint64, parallelism int) (*netem.Sim, error) {
	topo, err := topology.New(spec.topo)
	if err != nil {
		return nil, err
	}
	if spec.noiseHi == 0 {
		spec.noiseHi = 1e-6
	}
	w := spec.workload
	if spec.pattern != nil {
		w.Pattern = spec.pattern(topo)
	}
	if w.Pattern == nil {
		w.Pattern = traffic.Uniform{}
	}
	if w.ConnsPerHost.Lo == 0 && w.ConnsPerHost.Hi == 0 {
		w.ConnsPerHost = traffic.IntRange{Lo: 60, Hi: 60}
	}
	if w.PacketsPerFlow.Lo == 0 && w.PacketsPerFlow.Hi == 0 {
		w.PacketsPerFlow = traffic.IntRange{Lo: 100, Hi: 100}
	}
	return netem.New(netem.Config{
		Topo: topo, Workload: w,
		NoiseLo: spec.noiseLo, NoiseHi: spec.noiseHi,
		TracerouteCap: spec.tracerouteCap,
		Seed:          seed,
		Parallelism:   parallelism,
	})
}

// runOne simulates one epoch under the spec and scores everything.
func runOne(spec simSpec, seed uint64, parallelism int) (simOutcome, error) {
	sim, err := newSim(spec, seed, parallelism)
	if err != nil {
		return simOutcome{}, err
	}
	rng := stats.NewRNG(seed ^ 0xfeedface)
	for l, rate := range spec.failures(rng, sim.Topology()) {
		sim.InjectFailure(l, rate)
	}
	ep := sim.RunEpoch()
	truth := ep.Truth()

	res := analysis.Analyze(ep.Reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01}})

	out := simOutcome{flows: ep.TotalFlows}
	score := metrics.ScoreVerdicts(res.Verdicts, truth)
	out.acc007 = score.Accuracy()
	out.failFlows = score.Considered
	out.noiseErrs = score.NoiseErrors
	out.det007 = metrics.ScoreDetection(res.Detected, ep.FailedLinks)

	in := opt.BuildInstance(ep.Reports)
	intSol := in.SolveInteger(stats.NewRNG(seed ^ 0xabcdef))
	out.accInt = metrics.ScoreBlamer(intSol, ep.Reports, truth).Accuracy()
	// The integer program's detection uses its extra information: links
	// assigned only a lone drop are noise by the paper's definition.
	out.detInt = metrics.ScoreDetection(intSol.FailedLinks(2), ep.FailedLinks)

	// Binary program: exact when tractable, greedy (MAX COVERAGE / Tomo)
	// otherwise — the paper's own fallback.
	var binLinks []topology.LinkID
	if in.Flows() <= 30 {
		binLinks, _ = in.SolveBinaryExact(100000)
	} else {
		binLinks = in.SolveBinaryGreedy()
	}
	out.detBin = metrics.ScoreDetection(binLinks, ep.FailedLinks)
	return out, nil
}

// sweepPoint runs Seeds repetitions of one condition concurrently through
// the bounded worker pool. Each repetition derives its own seed and writes
// into its own slot, so the sweep's output is independent of the pool size.
// A failed repetition stops the remaining ones from starting.
func sweepPoint(spec simSpec, opts Options) ([]simOutcome, error) {
	n := opts.seeds()
	outs := make([]simOutcome, n)
	inner := opts.innerParallelism(n)
	err := par.ForEachErr(n, opts.parallelism(), func(i int) error {
		var err error
		outs[i], err = runOne(spec, opts.Seed+uint64(i)*7919+1, inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

func mean(outs []simOutcome, f func(simOutcome) float64) stats.Summary {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = f(o)
	}
	return stats.Summarize(vs)
}

func fmtMeanCI(s stats.Summary) string {
	return fmt.Sprintf("%.3f±%.3f", s.Mean, s.CI95)
}

// randomLinks picks n distinct links uniformly over all non-host links
// (the paper injects failures on switch-to-switch links unless the
// experiment says otherwise).
func randomLinks(rng *stats.RNG, topo *topology.Topology, n int) []topology.LinkID {
	var pool []topology.LinkID
	for _, class := range []topology.LinkClass{topology.L1Up, topology.L1Down, topology.L2Up, topology.L2Down} {
		pool = append(pool, topo.LinksOfClass(class)...)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]topology.LinkID(nil), pool[:min(n, len(pool))]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// uniformFailures injects k failures with rates U(lo, hi).
func uniformFailures(k int, lo, hi float64) failurePick {
	return func(rng *stats.RNG, topo *topology.Topology) map[topology.LinkID]float64 {
		out := make(map[topology.LinkID]float64, k)
		for _, l := range randomLinks(rng, topo, k) {
			out[l] = rng.Uniform(lo, hi)
		}
		return out
	}
}

// singleFailure injects one failure at exactly the given rate.
func singleFailure(rate float64) failurePick {
	return func(rng *stats.RNG, topo *topology.Topology) map[topology.LinkID]float64 {
		l := randomLinks(rng, topo, 1)[0]
		return map[topology.LinkID]float64{l: rate}
	}
}
