// Package engine is the plane-agnostic epoch engine: one interface over
// the paper's two validation substrates — the flow-level simulator
// (internal/netem, §6) and the packet-level cluster emulation
// (internal/cluster over internal/fabric, §7/§8). Each epoch an Engine
// settles its scripted link rates, drives one 30-second round of its
// plane, runs 007's full analysis cycle and yields an EpochResult carrying
// the epoch's ground truth next to 007's output.
//
// Everything above this package — the scenario engine, the conformance
// suite, the experiment harness, the vigil facade — is plane-generic: the
// five named dynamic scenarios run unmodified on either plane, and the
// cross-plane conformance suite holds the two planes to the same
// statistical envelopes (the extended paper's point that 007's hardest
// regimes hold in both simulation and emulation).
//
// Determinism: a seeded engine is deterministic — same seed and same
// schedules give bit-identical EpochResults across repeated runs. The flow
// plane is additionally bit-identical at every Parallelism setting. The
// packet plane runs one scheduler per replica; it uses more cores by
// fanning replicas out across seeds (one engine per seed on the
// internal/par pool).
package engine

import (
	"fmt"

	"vigil/internal/analysis"
	"vigil/internal/metrics"
	"vigil/internal/netem"
	"vigil/internal/schedule"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// Plane names an evaluation substrate.
type Plane string

// The two planes of the paper's evaluation.
const (
	// Flow is the flow-level simulation plane (§6): fast, scales to the
	// paper's 4160-link datacenter, drops sampled per flow.
	Flow Plane = "flow"
	// Packet is the packet-level emulation plane (§7/§8): real host agents,
	// TCP-like retransmissions, crafted-probe traceroutes, ICMP rate
	// limiting, serialized packets on a DES fabric.
	Packet Plane = "packet"
)

// Valid reports whether p names a known plane.
func (p Plane) Valid() bool { return p == Flow || p == Packet }

// EpochResult is the plane-agnostic outcome of one epoch: 007's outputs
// (reports, and their analysis: ranking, detections, verdicts) next to the
// epoch's ground truth (settled failure set, per-flow culprits, drop
// totals).
type EpochResult struct {
	// Epoch is the epoch's index (the value schedules saw in RateAt).
	Epoch int
	// FailedLinks is the epoch's settled failure set, sorted. It may share
	// storage with other epochs of the same engine; treat it as read-only.
	FailedLinks []topology.LinkID
	// Reports carries what 007's analysis agent received this epoch.
	Reports []vote.Report
	// Result is the analysis of Reports: Ranking, Detected and Verdicts.
	analysis.Result
	// Truth maps failed flows (>= 1 packet lost) to their ground truth.
	Truth map[int64]metrics.FlowTruth
	// TotalFlows, FailedFlows and TotalDrops summarize the epoch.
	TotalFlows  int
	FailedFlows int
	TotalDrops  int
}

// Engine is one plane's epoch driver. Implementations settle scripted
// rates at the top of each epoch, before any of the epoch's randomness is
// drawn, and score the epoch against the settled failure set.
type Engine interface {
	// Topology returns the emulated or simulated network.
	Topology() *topology.Topology
	// InjectFailure sets a directed link's drop rate (a probability).
	InjectFailure(l topology.LinkID, rate float64) error
	// ClearFailure restores a link to its baseline (noise) rate.
	ClearFailure(l topology.LinkID) error
	// ClearAllFailures restores every manually injected link.
	ClearAllFailures()
	// Schedule attaches an epoch-indexed rate schedule to a link.
	Schedule(l topology.LinkID, s schedule.RateSchedule) error
	// ClearSchedules detaches every schedule.
	ClearSchedules()
	// EpochIndex returns the index the next RunEpoch call will run.
	EpochIndex() int
	// RunEpoch drives one epoch and returns its result.
	RunEpoch() *EpochResult
	// Step drives one epoch like RunEpoch but leaves 007's analysis to the
	// caller — the feed seam of a streaming service, where the engine never
	// stops and epochs settle downstream. Every report of the epoch is
	// streamed through emit (if non-nil) as the plane produces it, in a
	// deterministic but plane-specific order; the returned result carries
	// the epoch's reports in canonical (agent, epoch, seq) order and its
	// ground truth, with Ranking/Detected/Verdicts nil. Analyzing the
	// returned reports with Analysis() reproduces RunEpoch bit for bit.
	Step(emit func(vote.Report)) *EpochResult
	// Analysis returns the options an external analyzer must use for its
	// output on an epoch's canonical reports to be bit-identical with
	// RunEpoch's.
	Analysis() analysis.Options
}

// Config parametrizes an engine of either plane.
type Config struct {
	// Plane selects the substrate; empty means Flow.
	Plane Plane
	// Topo is the network; required.
	Topo *topology.Topology
	// Workload is the per-epoch traffic; a nil Pattern means the plane
	// default (the paper's uniform 60 conns/host on the flow plane, a
	// lighter uniform workload on the packet plane, where every packet is
	// individually emulated).
	Workload traffic.Workload
	// NoiseLo/NoiseHi bound good-link noise rates; both zero means the
	// paper's (0, 1e-6).
	NoiseLo, NoiseHi float64
	// TracerouteCap limits traced flows per host per epoch on the flow
	// plane (0 = unlimited). The packet plane enforces the real limits
	// natively — the host-side Ct budget and switch-side Tmax token bucket.
	TracerouteCap int
	// Seed drives every random choice of the engine.
	Seed uint64
	// Incremental enables the flow plane's datacenter-scale delta epochs:
	// the epoch seed and flow set freeze after the first epoch and later
	// epochs re-score only the flows whose paths touch links whose rates
	// changed, with results bit-identical to full re-scoring of the frozen
	// workload (see netem.Config.Incremental). The packet plane ignores it.
	Incremental bool
	// Parallelism is the worker count of the flow plane's fused full epoch
	// (0 = all cores); delta epochs and analysis run inline. Results are
	// bit-identical at every setting. The packet plane ignores it.
	Parallelism int
	// Detect configures Algorithm 1; the zero value means the paper's 1%
	// threshold.
	Detect vote.DetectOptions
}

// New builds an engine on the configured plane.
func New(cfg Config) (Engine, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("engine: Config.Topo is required")
	}
	plane := cfg.Plane
	if plane == "" {
		plane = Flow
	}
	if cfg.NoiseLo == 0 && cfg.NoiseHi == 0 {
		cfg.NoiseHi = 1e-6
	}
	if cfg.Detect.ThresholdFrac == 0 {
		cfg.Detect.ThresholdFrac = 0.01
	}
	switch plane {
	case Flow:
		return newFlowEngine(cfg)
	case Packet:
		return newPacketEngine(cfg)
	default:
		return nil, fmt.Errorf("engine: unknown plane %q", plane)
	}
}

// flowEngine adapts netem.Sim: simulate the epoch, then run the analysis
// pipeline over its reports.
type flowEngine struct {
	sim *netem.Sim
	an  analysis.Options
}

func newFlowEngine(cfg Config) (*flowEngine, error) {
	w := cfg.Workload.WithDefaults(traffic.DefaultWorkload())
	sim, err := netem.New(netem.Config{
		Topo:          cfg.Topo,
		Workload:      w,
		NoiseLo:       cfg.NoiseLo,
		NoiseHi:       cfg.NoiseHi,
		TracerouteCap: cfg.TracerouteCap,
		Seed:          cfg.Seed,
		Parallelism:   cfg.Parallelism,
		Incremental:   cfg.Incremental,
	})
	if err != nil {
		return nil, err
	}
	return &flowEngine{
		sim: sim,
		an:  analysis.Options{Detect: cfg.Detect},
	}, nil
}

func (e *flowEngine) Topology() *topology.Topology { return e.sim.Topology() }

func (e *flowEngine) InjectFailure(l topology.LinkID, rate float64) error {
	return e.sim.InjectFailure(l, rate)
}

func (e *flowEngine) ClearFailure(l topology.LinkID) error { return e.sim.ClearFailure(l) }

func (e *flowEngine) Schedule(l topology.LinkID, s schedule.RateSchedule) error {
	return e.sim.Schedule(l, s)
}

func (e *flowEngine) ClearAllFailures() { e.sim.ClearAllFailures() }
func (e *flowEngine) ClearSchedules()   { e.sim.ClearSchedules() }
func (e *flowEngine) EpochIndex() int   { return e.sim.EpochIndex() }

func (e *flowEngine) Analysis() analysis.Options { return e.an }

// Step simulates one epoch and streams its reports. The simulator emits
// reports in (agent, seq) order already — sources ascend and one source's
// flows are contiguous — so the canonical sort is a verification scan on
// every workload without repeated hosts.
func (e *flowEngine) Step(emit func(vote.Report)) *EpochResult {
	epoch := e.sim.EpochIndex()
	ep := e.sim.RunEpoch()
	vote.SortCanonical(ep.Reports)
	if emit != nil {
		for _, r := range ep.Reports {
			emit(r)
		}
	}
	return &EpochResult{
		Epoch:       epoch,
		FailedLinks: ep.FailedLinks,
		Reports:     ep.Reports,
		Truth:       ep.Truth(),
		TotalFlows:  ep.TotalFlows,
		FailedFlows: len(ep.Failed),
		TotalDrops:  ep.TotalDrops,
	}
}

func (e *flowEngine) RunEpoch() *EpochResult {
	return analyzeStep(e, e.Step(nil))
}

// analyzeStep completes a Step result into a RunEpoch result by running
// the plane's analysis over the epoch's canonical reports — the single
// settle path both planes and the streaming service share, which is what
// makes "vigild's fault-free settled epochs are bit-identical to batch
// RunEpoch" a structural property rather than a test-enforced one.
func analyzeStep(e Engine, res *EpochResult) *EpochResult {
	res.Result = *analysis.Analyze(res.Reports, e.Analysis())
	return res
}
