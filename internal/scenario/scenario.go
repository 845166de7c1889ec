// Package scenario is the dynamic failure-scenario engine: it scripts
// time-varying network conditions — link flaps, intermittent low-rate
// drops, rolling multi-link failure waves, congestion bursts under skewed
// traffic, failure churn — on top of the shared epoch-indexed rate
// schedules (internal/schedule), runs the full 007 cycle over the scripted
// epochs and scores every epoch against its own ground truth.
//
// Scenarios are plane-agnostic: the same Spec runs unmodified on the
// flow-level simulation plane (§6) or the packet-level cluster emulation
// (§7/§8) through one plane-agnostic epoch engine (internal/engine) —
// matching the extended paper (arXiv:1802.07222 §V), which validates the
// hardest dynamic regimes on both substrates. A Spec is a deterministic
// function of (seed, topology): running the same named scenario with the
// same seed yields bit-identical results at every Parallelism setting on
// the flow plane, and across repeated runs and replica fan-out orderings
// on either (DESIGN.md).
package scenario

import (
	"fmt"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// LinkSchedule scripts one link's time-varying drop rate.
type LinkSchedule struct {
	Link     topology.LinkID
	Schedule schedule.RateSchedule
}

// Spec is a named, reusable scenario: a topology, a workload and a script
// of per-link rate schedules. The Workload and Script callbacks receive a
// scenario-private RNG derived from the run seed plus the built topology,
// so a Spec can pick random links/ToRs per run while staying deterministic
// for a fixed seed.
type Spec struct {
	Name  string
	Title string
	// Epochs is the scripted duration; Config.Epochs can override it.
	Epochs int
	// Topo sizes the Clos; the zero value means the plane's quick-scale
	// evaluation topology (QuickTopo on the flow plane, PacketQuickTopo on
	// the packet plane — both fast enough for the conformance suite to
	// sweep seeds inside go test).
	Topo topology.Config
	// Workload builds the epoch workload; nil means the paper default
	// (uniform pattern, 60 conns/host, 100 packets/flow).
	Workload func(rng *stats.RNG, topo *topology.Topology) traffic.Workload
	// Script builds the scenario's link schedules.
	Script func(rng *stats.RNG, topo *topology.Topology) []LinkSchedule
}

// QuickTopo is the default flow-plane scenario topology: the quick-scale
// Clos the experiment harness uses for smoke tests, small enough that a
// multi-seed conformance sweep fits in a test run.
var QuickTopo = topology.Config{Pods: 2, ToRsPerPod: 8, T1PerPod: 8, T2: 4, HostsPerToR: 8}

// PacketQuickTopo is the default packet-plane scenario topology: a two-pod
// Clos with every link class present (so every scenario's link picks
// resolve), sized so that a DES replica — which emulates each packet, ACK,
// probe and ICMP reply individually — runs a scripted multi-epoch scenario
// in well under a second.
var PacketQuickTopo = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 2}

// QuickTopoFor returns the plane's default scenario topology — what vigild
// serves and vigil-agents reports on, so the two ends agree by construction.
func QuickTopoFor(plane engine.Plane) topology.Config {
	if plane == engine.Packet {
		return PacketQuickTopo
	}
	return QuickTopo
}

// Config parametrizes one scenario run.
type Config struct {
	// Seed drives every random choice of the run (workload, script, drops).
	Seed uint64
	// Epochs overrides Spec.Epochs when positive.
	Epochs int
	// Plane is the substrate the run executes on: engine.Flow or
	// engine.Packet. Empty means the flow plane.
	Plane engine.Plane
	// Parallelism is the worker count of the flow plane's fused full
	// epoch; 0 means all cores. Delta epochs and analysis run inline.
	// Results are bit-identical at every setting. The packet plane ignores
	// it (replicas parallelize across seeds, not within).
	Parallelism int
}

// specDomain derives the scenario-construction stream from the run seed.
// Workload and Script receive *independent copies* of the same stream: a
// spec that must coordinate the two (e.g. congestion-burst floods the same
// ToR its script bursts) draws the shared choice first in both callbacks
// and gets identical values.
const specDomain = 0x9b1f0c4de2a7c1b5

// EpochScore is one epoch's outcome, scored against that epoch's ground
// truth (the links active under the script during the epoch).
type EpochScore struct {
	Epoch int
	// ActiveLinks are the scripted failures live this epoch, sorted.
	ActiveLinks []topology.LinkID
	// Detected is Algorithm 1's output, in blame order.
	Detected []topology.LinkID
	// Detection scores Detected against ActiveLinks.
	Detection metrics.Detection
	// Accuracy is the share of failure-crossing flows blamed correctly; 1
	// when no flow crossed an active failure.
	Accuracy float64
	// FlowsScored counts the failure-crossing flows behind Accuracy.
	FlowsScored int
	FailedFlows int
	TotalDrops  int
}

// Result aggregates a full scenario run. The binomial counts (TruePos,
// FalsePos, FalseNeg, Correct, Considered, QuietClean/QuietEpochs) are the
// conformance suite's raw material: summing them across seeds gives the
// trials behind each statistical envelope.
type Result struct {
	Name string
	// Plane records the substrate the run executed on.
	Plane  engine.Plane
	Epochs []EpochScore

	// ActiveEpochs counts epochs with at least one scripted failure live;
	// QuietEpochs the rest. QuietClean counts quiet epochs in which
	// Algorithm 1 correctly detected nothing.
	ActiveEpochs int
	QuietEpochs  int
	QuietClean   int

	// Detection counts summed over epochs.
	TruePos, FalsePos, FalseNeg int
	// Flow-attribution counts summed over epochs.
	Correct, Considered int

	// Precision/Recall/Accuracy are the aggregate ratios of the counts
	// above (1 when the denominator is empty).
	Precision, Recall, Accuracy float64
}

// ratio returns num/den, or 1 for an empty denominator (no opportunity to
// be wrong), matching metrics' conventions.
func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// Prepared is a scenario built and scripted but not yet driven: the epoch
// engine with every schedule attached, ready for any driver — Run's batch
// loop, or a streaming service that settles the same engine's epochs
// downstream (internal/ingest).
type Prepared struct {
	Name   string
	Plane  engine.Plane
	Epochs int
	Engine engine.Engine
}

// Prepare builds a scenario run up to (but not including) its first epoch:
// topology, workload, engine, validated script.
func Prepare(spec Spec, cfg Config) (*Prepared, error) {
	plane := cfg.Plane
	if plane == "" {
		plane = engine.Flow
	}
	if !plane.Valid() {
		return nil, fmt.Errorf("scenario %q: unknown plane %q", spec.Name, plane)
	}
	epochs := spec.Epochs
	if cfg.Epochs > 0 {
		epochs = cfg.Epochs
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("scenario %q: non-positive epoch count %d", spec.Name, epochs)
	}
	topoCfg := spec.Topo
	if topoCfg == (topology.Config{}) {
		topoCfg = QuickTopoFor(plane)
	}
	topo, err := topology.New(topoCfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	var w traffic.Workload // zero Pattern: the engine's plane default
	if spec.Workload != nil {
		w = spec.Workload(stats.DeriveRNG(cfg.Seed, specDomain), topo)
	}
	eng, err := engine.New(engine.Config{
		Plane:       plane,
		Topo:        topo,
		Workload:    w,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	if spec.Script == nil {
		return nil, fmt.Errorf("scenario %q: nil Script", spec.Name)
	}
	script := spec.Script(stats.DeriveRNG(cfg.Seed, specDomain), topo)
	if len(script) == 0 {
		return nil, fmt.Errorf("scenario %q: empty script", spec.Name)
	}
	// Validate the whole script up front: every scheduled rate over the
	// scripted horizon must be a probability, a custom schedule's included
	// (eng.Schedule checks the link and a built-in shape's rates).
	// RateSchedules are pure, so probing costs nothing but arithmetic.
	for _, ls := range script {
		if err := schedule.Probe(ls.Schedule, epochs); err != nil {
			return nil, fmt.Errorf("scenario %q: link %d: %w", spec.Name, ls.Link, err)
		}
		if err := eng.Schedule(ls.Link, ls.Schedule); err != nil {
			return nil, fmt.Errorf("scenario %q: link %d: %w", spec.Name, ls.Link, err)
		}
	}
	return &Prepared{Name: spec.Name, Plane: plane, Epochs: epochs, Engine: eng}, nil
}

// Scorer folds a run's EpochResults into a Result — the scoring half of
// Run, split out so any epoch driver (the batch loop here, or a streaming
// ingest service feeding settled epochs) scores through one code path.
// Feed epochs in order; a Scorer is not safe for concurrent Add.
type Scorer struct {
	res *Result
}

// Scorer returns a fresh scorer for this prepared run.
func (p *Prepared) Scorer() *Scorer {
	return &Scorer{res: &Result{
		Name:   p.Name,
		Plane:  p.Plane,
		Epochs: make([]EpochScore, 0, p.Epochs),
	}}
}

// Add scores one epoch against its own ground truth and folds it in.
func (s *Scorer) Add(er *engine.EpochResult) {
	res := s.res
	score := metrics.ScoreVerdicts(er.Verdicts, er.Truth)
	det := metrics.ScoreDetection(er.Detected, er.FailedLinks)
	active := make([]topology.LinkID, len(er.FailedLinks))
	copy(active, er.FailedLinks)
	es := EpochScore{
		Epoch:       er.Epoch,
		ActiveLinks: active,
		Detected:    er.Detected,
		Detection:   det,
		Accuracy:    score.Accuracy(),
		FlowsScored: score.Considered,
		FailedFlows: er.FailedFlows,
		TotalDrops:  er.TotalDrops,
	}
	res.Epochs = append(res.Epochs, es)
	if len(active) > 0 {
		res.ActiveEpochs++
		res.TruePos += det.TruePos
		res.FalsePos += det.FalsePos
		res.FalseNeg += det.FalseNeg
	} else {
		res.QuietEpochs++
		if len(er.Detected) == 0 {
			res.QuietClean++
		}
	}
	res.Correct += score.Correct
	res.Considered += score.Considered
}

// Finish computes the aggregate ratios and returns the result.
func (s *Scorer) Finish() *Result {
	res := s.res
	res.Precision = ratio(res.TruePos, res.TruePos+res.FalsePos)
	res.Recall = ratio(res.TruePos, res.TruePos+res.FalseNeg)
	res.Accuracy = ratio(res.Correct, res.Considered)
	return res
}

// Run executes one scenario: build the topology, derive the workload and
// script from the seed, construct the epoch engine for the chosen plane,
// then drive, analyze and score Epochs rounds — one code path for both the
// flow-level simulator and the packet-level cluster emulation.
func Run(spec Spec, cfg Config) (*Result, error) {
	p, err := Prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	sc := p.Scorer()
	for e := 0; e < p.Epochs; e++ {
		sc.Add(p.Engine.RunEpoch())
	}
	return sc.Finish(), nil
}

// ---- registry ----

var registry []Spec

// Register adds a named scenario. It panics on a duplicate or empty name —
// registration happens from init functions, where a bad registry is a
// programming error.
func Register(spec Spec) {
	if spec.Name == "" {
		panic("scenario: Register with empty name")
	}
	for _, s := range registry {
		if s.Name == spec.Name {
			panic("scenario: duplicate registration of " + spec.Name)
		}
	}
	registry = append(registry, spec)
}

// All returns every registered scenario in registration order.
func All() []Spec { return append([]Spec(nil), registry...) }

// Find returns the scenario with the given name.
func Find(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
