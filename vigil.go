// Package vigil is a from-scratch reproduction of "007: Democratically
// Finding the Cause of Packet Drops" (Arzani et al., NSDI 2018): an
// always-on, host-side fault localization system for datacenter networks,
// together with the substrates needed to evaluate it — a Clos topology
// model, seeded ECMP routing, a flow-level simulator, a packet-level
// fabric emulation with crafted-probe traceroutes and ICMP rate limiting,
// a software load balancer, optimization baselines, and the full
// experiment harness regenerating every table and figure of the paper.
//
// The package exposes three entry points:
//
//   - Simulation: the flow-level plane (§6 of the paper). Fast, scales to
//     the paper's 4160-link datacenter; used for accuracy/precision/recall
//     sweeps.
//   - Emulation: the packet-level plane (§7, §8). Every host runs real 007
//     agents over an emulated switching fabric: retransmissions come from
//     a TCP-like stack, paths from real traceroute probes; cmd/vigil-agents
//     ships its reports over loopback TCP (internal/transport).
//   - Experiments: the per-figure/table runners behind cmd/vigil-lab.
//
// See DESIGN.md for the system inventory and its "Experiment index";
// cmd/vigil-lab prints each experiment's paper-vs-measured notes.
package vigil

import (
	"fmt"

	"vigil/internal/cluster"
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/engine"
	"vigil/internal/experiments"
	"vigil/internal/metrics"
	"vigil/internal/report"
	"vigil/internal/scenario"
	"vigil/internal/schedule"
	"vigil/internal/slb"
	"vigil/internal/theory"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// Core identifier and configuration types, re-exported from the internal
// packages so the public API is self-contained.
type (
	// Topology is a built Clos network (switches, hosts, directed links).
	Topology = topology.Topology
	// TopologyConfig sizes a Clos in the paper's notation (npod, n0, n1,
	// n2, H).
	TopologyConfig = topology.Config
	// DatacenterConfig sizes a multi-cluster Clos: groups of pods meshed
	// through one shared global spine, the §7 deployment shape.
	DatacenterConfig = topology.DatacenterConfig
	// LinkID identifies a directed link.
	LinkID = topology.LinkID
	// LinkClass is a link's role (host-ToR, ToR-T1, T1-T2 and reverses).
	LinkClass = topology.LinkClass
	// HostID identifies an end host.
	HostID = topology.HostID
	// SwitchID identifies a switch.
	SwitchID = topology.SwitchID
	// FiveTuple identifies a flow.
	FiveTuple = ecmp.FiveTuple
	// Workload describes an epoch of traffic.
	Workload = traffic.Workload
	// IntRange is an inclusive range used by workload knobs.
	IntRange = traffic.IntRange
	// Report is one host agent's per-flow report to the analysis agent.
	Report = vote.Report
	// LinkVotes pairs a link with its vote tally.
	LinkVotes = vote.LinkVotes
	// Verdict is 007's per-flow conclusion.
	Verdict = vote.Verdict
	// DetectOptions configures Algorithm 1.
	DetectOptions = vote.DetectOptions
	// Detection carries precision/recall of a detected link set.
	Detection = metrics.Detection
	// FlowTruth is ground truth for one failed flow.
	FlowTruth = metrics.FlowTruth
	// Emulation is the packet-level multi-node emulation (§7/§8 plane).
	Emulation = cluster.Cluster
	// EmulationConfig assembles an Emulation.
	EmulationConfig = cluster.Config
	// Duration is virtual time in microseconds (packet plane).
	Duration = des.Time
	// Table is a rendered experiment table.
	Table = report.Table
	// ExperimentOptions configures an experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentResult is one experiment's tables and notes.
	ExperimentResult = experiments.Result
	// Experiment is a registered table/figure runner.
	Experiment = experiments.Runner
	// RateSchedule scripts a link's drop rate per epoch (dynamic failures).
	// The shapes below are shared by both planes (internal/schedule).
	RateSchedule = schedule.RateSchedule
	// ConstantRate fails a link at a fixed rate in every epoch.
	ConstantRate = schedule.ConstantRate
	// Window fails a link during an epoch interval [Start, End).
	Window = schedule.Window
	// Flap cycles a link through an on/off duty cycle.
	Flap = schedule.Flap
	// Intermittent fails a link in a random fraction of epochs.
	Intermittent = schedule.Intermittent
	// Plane selects an evaluation substrate for scenarios (flow or packet).
	Plane = engine.Plane
	// ScenarioConfig parametrizes one dynamic-scenario run.
	ScenarioConfig = scenario.Config
	// ScenarioResult is a scored multi-epoch scenario run.
	ScenarioResult = scenario.Result
	// ScenarioEpoch is one epoch's score within a scenario run.
	ScenarioEpoch = scenario.EpochScore
)

// Evaluation planes for RunScenario: the flow-level simulator (§6) and the
// packet-level cluster emulation (§7/§8). The five named scenarios run
// unmodified on either.
const (
	OnFlowPlane   = engine.Flow
	OnPacketPlane = engine.Packet
)

// Link classes, re-exported.
const (
	HostUp   = topology.HostUp
	HostDown = topology.HostDown
	L1Up     = topology.L1Up
	L1Down   = topology.L1Down
	L2Up     = topology.L2Up
	L2Down   = topology.L2Down
)

// Experiment scales.
const (
	FullScale  = experiments.Full
	QuickScale = experiments.Quick
)

// Virtual-time units for the packet plane.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// DefaultSimTopology is the paper's §6 simulator topology (4160 directed
// links, 2 pods, 20 ToRs per pod).
var DefaultSimTopology = topology.DefaultSimConfig

// TestClusterTopology is the paper's §7 test cluster (one pod, 10 ToRs, 80
// physical links).
var TestClusterTopology = topology.TestClusterConfig

// DatacenterSimTopology is the reference multi-cluster datacenter fabric
// (8 clusters × 3 pods, 34,560 hosts, 142,848 directed links) used by the
// scaling benchmarks; pair it with SimConfig.Incremental.
var DatacenterSimTopology = topology.DatacenterSimConfig

// DatacenterPacketTopology is the packet plane's datacenter fabric (8
// clusters × 4 pods = 32 pods, 256 hosts, 3,584 directed links): every
// packet is emulated individually, so it trades radix for pod count.
var DatacenterPacketTopology = topology.DatacenterPacketConfig

// NewTopology builds a Clos topology.
func NewTopology(cfg TopologyConfig) (*Topology, error) { return topology.New(cfg) }

// NewDatacenterTopology builds a multi-cluster Clos fabric; the result is
// an ordinary *Topology usable everywhere one is accepted.
func NewDatacenterTopology(cfg DatacenterConfig) (*Topology, error) {
	return topology.NewDatacenter(cfg)
}

// NewEmulation builds the packet-level plane. See EmulationConfig for the
// knobs (Ct, host stack parameters, noise, analysis options).
func NewEmulation(cfg EmulationConfig) (*Emulation, error) { return cluster.New(cfg) }

// UniformTraffic is the paper's default pattern: destination ToR uniform
// among all other ToRs.
func UniformTraffic() traffic.Pattern { return traffic.Uniform{} }

// HotToRTraffic sends frac of all flows into one sink ToR (Fig. 9).
func HotToRTraffic(sink SwitchID, frac float64) traffic.Pattern {
	return traffic.HotToR{Sink: sink, Frac: frac}
}

// SkewedTraffic sends frac of flows to the given hot ToR set (Fig. 8).
func SkewedTraffic(hot []SwitchID, frac float64) traffic.Pattern {
	return traffic.SkewedToRs{Hot: hot, Frac: frac}
}

// TracerouteBudget returns Theorem 1's bound on per-host traceroutes per
// second that keeps every switch below tmax ICMP messages per second.
func TracerouteBudget(cfg TopologyConfig, tmax float64) float64 {
	return theory.CtBound(cfg, tmax)
}

// SimConfig configures the flow-level plane.
type SimConfig struct {
	// Topology defaults to DefaultSimTopology.
	Topology TopologyConfig
	// Workload defaults to the paper's: uniform pattern, 60 connections
	// per host per epoch, 100 packets per flow. No flow may send more than
	// 65,535 packets.
	Workload Workload
	// NoiseLo, NoiseHi bound good-link drop rates; default (0, 1e-6).
	NoiseLo, NoiseHi float64
	// TracerouteCap limits traced flows per host per epoch (0 = unlimited).
	TracerouteCap int
	// Detect configures Algorithm 1; zero value means the paper's 1%
	// threshold with the observed-path adjuster.
	Detect DetectOptions
	// Seed makes the run reproducible.
	Seed uint64
	// Parallelism is the worker count of the fused full epoch, the flow
	// simulation's one fan-out; 0 means runtime.GOMAXPROCS(0). Incremental
	// delta epochs and analysis run on the caller's goroutine at every
	// setting. Epoch results are bit-identical at every setting — the knob
	// only trades cores for wall-clock.
	Parallelism int
	// Incremental enables datacenter-scale delta epochs: the epoch seed and
	// flow set freeze after the first epoch, and every later epoch
	// re-scores only the flows whose paths touch links whose drop rates
	// changed (schedules, injections and clears all count), carrying every
	// untouched flow's outcome forward. Results are bit-identical to
	// re-scoring the whole frozen workload each epoch; the trade is cache
	// memory (every flow's packet count and path) and epoch-to-epoch
	// statistical independence, which a frozen workload no longer has.
	// Meant for topologies like DatacenterSimTopology where full epochs
	// are millions of flows. Its analysis then patches each epoch's
	// reports from the last, with the outputs of a fresh build.
	Incremental bool
}

// Simulation is the flow-level plane: inject failures, run 30-second
// epochs, get rankings, detections and per-flow verdicts scored against
// ground truth. It is a thin wrapper over the plane-agnostic epoch engine
// (internal/engine) pinned to the flow plane; RunScenario reaches the same
// engine on either plane.
type Simulation struct {
	eng engine.Engine
}

// NewSimulation builds a Simulation.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	topoCfg := cfg.Topology
	if topoCfg == (TopologyConfig{}) {
		topoCfg = DefaultSimTopology
	}
	topo, err := topology.New(topoCfg)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Plane:         engine.Flow,
		Topo:          topo,
		Workload:      cfg.Workload,
		NoiseLo:       cfg.NoiseLo,
		NoiseHi:       cfg.NoiseHi,
		TracerouteCap: cfg.TracerouteCap,
		Seed:          cfg.Seed,
		Parallelism:   cfg.Parallelism,
		Incremental:   cfg.Incremental,
		Detect:        cfg.Detect,
	})
	if err != nil {
		return nil, err
	}
	return &Simulation{eng: eng}, nil
}

// Topology returns the simulated network.
func (s *Simulation) Topology() *Topology { return s.eng.Topology() }

// InjectFailure sets a directed link's drop rate. The rate must be a
// probability in [0, 1]; the link must exist in the simulated topology.
func (s *Simulation) InjectFailure(l LinkID, rate float64) error {
	return s.eng.InjectFailure(l, rate)
}

// ScheduleFailure attaches an epoch-indexed rate schedule to a link: from
// the next epoch on, the link follows the schedule (re-injected when
// active, restored to its noise rate when not), overriding manual
// injections on the same link. Use the Flap, Window, Intermittent and
// ConstantRate schedules — whose rates are validated here — or any custom
// RateSchedule, whose rates the engine checks as each epoch applies them
// (an out-of-range rate then panics rather than silently corrupting the
// run).
func (s *Simulation) ScheduleFailure(l LinkID, sched RateSchedule) error {
	return s.eng.Schedule(l, sched)
}

// ClearSchedules detaches every rate schedule and restores the scheduled
// links to their noise rates.
func (s *Simulation) ClearSchedules() { s.eng.ClearSchedules() }

// ClearFailure restores a link to its noise rate.
func (s *Simulation) ClearFailure(l LinkID) { s.eng.ClearFailure(l) }

// ClearAllFailures restores every link.
func (s *Simulation) ClearAllFailures() { s.eng.ClearAllFailures() }

// EpochReport is the outcome of one simulated epoch: 007's outputs plus
// ground-truth scores.
type EpochReport struct {
	// Ranking is the vote heat-map, highest first.
	Ranking []LinkVotes
	// Detected is Algorithm 1's problematic link set, in blame order.
	Detected []LinkID
	// Verdicts are 007's per-flow conclusions for every reported flow.
	Verdicts []Verdict
	// FailedLinks are the injected failures active this epoch.
	FailedLinks []LinkID
	// Accuracy is the share of failure-crossing flows blamed on their true
	// culprit (the paper's per-flow accuracy).
	Accuracy float64
	// FlowsScored counts those failure-crossing flows.
	FlowsScored int
	// Detection scores Detected against FailedLinks.
	Detection Detection
	// TotalFlows, FailedFlows and TotalDrops summarize the epoch.
	TotalFlows  int
	FailedFlows int
	TotalDrops  int
}

// RunEpoch simulates one 30-second epoch and analyzes it — simulate,
// tally, detect, classify. Only a full epoch's simulation fans out, over
// SimConfig.Parallelism workers; a delta epoch and the analysis run on the
// caller's goroutine. Results are the same at every worker count.
func (s *Simulation) RunEpoch() *EpochReport {
	er := s.eng.RunEpoch()
	score := metrics.ScoreVerdicts(er.Verdicts, er.Truth)
	// The epoch's FailedLinks shares the engine's cached snapshot; hand the
	// public caller an owned copy so mutating the report cannot corrupt
	// later epochs.
	failed := make([]LinkID, len(er.FailedLinks))
	copy(failed, er.FailedLinks)
	return &EpochReport{
		Ranking:     er.Ranking,
		Detected:    er.Detected,
		Verdicts:    er.Verdicts,
		FailedLinks: failed,
		Accuracy:    score.Accuracy(),
		FlowsScored: score.Considered,
		Detection:   metrics.ScoreDetection(er.Detected, er.FailedLinks),
		TotalFlows:  er.TotalFlows,
		FailedFlows: er.FailedFlows,
		TotalDrops:  er.TotalDrops,
	}
}

// LinkName renders a link as "from→to" using a topology's names.
func LinkName(t *Topology, l LinkID) string { return t.LinkName(l) }

// RegisterVIP announces a load-balanced service on an emulation; vip
// addresses come from ServiceVIP.
func RegisterVIP(em *Emulation, vip uint32, backends []HostID) error {
	return em.SLB.RegisterVIP(vip, backends)
}

// ServiceVIP returns the i-th conventional virtual IP.
func ServiceVIP(i int) uint32 { return slb.VIP(i) }

// Experiments returns every registered table/figure runner in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by ID ("fig3", "table1", ...).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	r, ok := experiments.Find(id)
	if !ok {
		return nil, fmt.Errorf("vigil: unknown experiment %q (see Experiments())", id)
	}
	return r.Run(opts)
}

// ScenarioInfo identifies a registered dynamic failure scenario.
type ScenarioInfo struct {
	Name  string
	Title string
}

// Scenarios lists the registered dynamic failure scenarios (link flaps,
// intermittent drops, failure waves, congestion bursts, overlap churn).
func Scenarios() []ScenarioInfo {
	specs := scenario.All()
	out := make([]ScenarioInfo, len(specs))
	for i, s := range specs {
		out[i] = ScenarioInfo{Name: s.Name, Title: s.Title}
	}
	return out
}

// RunScenario runs one named dynamic scenario: a scripted multi-epoch
// sequence of time-varying link conditions, each epoch analyzed by 007 and
// scored against that epoch's ground truth. ScenarioConfig.Plane selects
// the substrate — OnFlowPlane (default, the §6 simulator) or OnPacketPlane
// (the §7/§8 cluster emulation) — through one plane-agnostic code path.
// Results are deterministic for a fixed ScenarioConfig.Seed; flow-plane
// runs are additionally bit-identical at every Parallelism.
func RunScenario(name string, cfg ScenarioConfig) (*ScenarioResult, error) {
	spec, ok := scenario.Find(name)
	if !ok {
		return nil, fmt.Errorf("vigil: unknown scenario %q (see Scenarios())", name)
	}
	return scenario.Run(spec, cfg)
}
