package engine

import (
	"fmt"

	"vigil/internal/analysis"
	"vigil/internal/cluster"
	"vigil/internal/des"
	"vigil/internal/schedule"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// packetWorkloadDefault is the packet plane's default per-epoch traffic: a
// uniform pattern light enough that a DES replica — which emulates every
// data packet, ACK, probe and ICMP reply individually — finishes an epoch
// in tens of milliseconds, while still putting enough flows across a
// failed link that Algorithm 1 has a signal every active epoch.
func packetWorkloadDefault() traffic.Workload {
	return traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 24, Hi: 24},
		PacketsPerFlow: traffic.IntRange{Lo: 80, Hi: 160},
	}
}

// workloadSpread is how far into the epoch new connections are spread —
// matching the experiment harness's 20 virtual seconds, which leaves every
// flow time to finish (or fail) before the epoch closes.
const workloadSpread = 20 * des.Second

// packetEngine adapts cluster.Cluster: every epoch it starts a fresh
// workload and steps the cluster, which settles scripted rates, drives the
// DES to the epoch boundary and closes the epoch into its frame.
type packetEngine struct {
	cl       *cluster.Cluster
	workload traffic.Workload
	an       analysis.Options
}

func newPacketEngine(cfg Config) (*packetEngine, error) {
	w := cfg.Workload.WithDefaults(packetWorkloadDefault())
	for _, h := range w.Hosts {
		if h < 0 || int(h) >= len(cfg.Topo.Hosts) {
			return nil, fmt.Errorf("engine: Workload.Hosts names host %d, not in topology (%d hosts)", h, len(cfg.Topo.Hosts))
		}
	}
	cl, err := cluster.New(cluster.Config{
		Topo:    cfg.Topo,
		Seed:    cfg.Seed,
		NoiseLo: cfg.NoiseLo,
		NoiseHi: cfg.NoiseHi,
	})
	if err != nil {
		return nil, err
	}
	return &packetEngine{cl: cl, workload: w, an: analysis.Options{Detect: cfg.Detect}}, nil
}

func (e *packetEngine) Topology() *topology.Topology { return e.cl.Topo }

func (e *packetEngine) InjectFailure(l topology.LinkID, rate float64) error {
	return e.cl.InjectFailure(l, rate)
}

func (e *packetEngine) ClearFailure(l topology.LinkID) error {
	return e.cl.ClearFailure(l)
}

func (e *packetEngine) Schedule(l topology.LinkID, s schedule.RateSchedule) error {
	return e.cl.ScheduleFailure(l, s)
}

func (e *packetEngine) ClearAllFailures() { e.cl.ClearAllFailures() }
func (e *packetEngine) ClearSchedules()   { e.cl.ClearSchedules() }
func (e *packetEngine) EpochIndex() int   { return e.cl.EpochIndex() }

func (e *packetEngine) Analysis() analysis.Options { return e.an }

// Step drives one epoch of the DES. emit sees each report live, in the
// deterministic virtual-time order host agents submit them; the returned
// result carries the cluster's frame, whose reports are in canonical
// (agent, epoch, seq) order — on this plane that is a real sort, since
// virtual-time submission interleaves agents.
func (e *packetEngine) Step(emit func(vote.Report)) *EpochResult {
	e.cl.StartWorkload(e.workload, workloadSpread)
	fr := e.cl.Step(emit)
	return &EpochResult{
		Epoch:       fr.Index,
		FailedLinks: fr.FailedLinks,
		Reports:     fr.Reports,
		Truth:       fr.Truth,
		TotalFlows:  fr.Flows,
		FailedFlows: fr.FailedFlows,
		TotalDrops:  fr.Drops,
	}
}

func (e *packetEngine) RunEpoch() *EpochResult {
	return analyzeStep(e, e.Step(nil))
}
