package main

import (
	"math"

	"vigil/internal/ingest"
	"vigil/internal/topology"
)

type kind int

const (
	kindWire      kind = iota // replay → RunAgent → loopback TCP → ServeCollector
	kindLanes                 // replay → in-process ingest.Service with faults
	kindFlowDelta             // datacenter flow engine, incremental, Step + Analyze
	kindPacket                // datacenter packet engine, Step + Analyze
)

// slicesPerRun is how many fresh processes one run of a workload is the
// median of.
const slicesPerRun = 5

// spec is one workload. A slice measures a fixed number of epochs, so every
// run with the same -seconds does the same work: epochsPerSecond is the
// workload's rate on the reference box (2 CPUs, see README.md), used only
// to turn -seconds into that count.
type spec struct {
	name, why       string
	kind            kind
	epochsPerSecond float64
	// warm is the number of warm-up epochs that belong to set-up: pools
	// filled, the delta cache built, the watermark window full.
	warm     int
	failures int     // failed links
	rate     float64 // their drop rate
	topo     topology.Config
	tinyTopo topology.Config // test scale

	// Service workloads only.
	grace      int
	maxRetries int
	faults     ingest.FaultConfig
}

func (s *spec) topoConfig(tiny bool) topology.Config {
	if tiny {
		return s.tinyTopo
	}
	return s.topo
}

// dropRate is the failed links' drop rate; the test-scale topologies carry
// so few flows that only a high rate yields reports in every epoch.
func (s *spec) dropRate(tiny bool) float64 {
	if tiny {
		return 0.05
	}
	return s.rate
}

// chunksPerSlice is how many equal chunks a slice's measured window is cut
// into; the slice reports its fastest chunk (see finish).
const chunksPerSlice = 20

// epochsFor returns the measured epochs of one slice of a run that is to
// measure for about `seconds` seconds: a whole number of epochs per chunk.
func (s *spec) epochsFor(seconds int) int {
	perChunk := math.Round(s.epochsPerSecond * float64(seconds) / slicesPerRun / chunksPerSlice)
	return chunksPerSlice * max(int(perChunk), 1)
}

var (
	tinyFlowTopo   = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 4, T2: 2, HostsPerToR: 4}
	tinyPacketTopo = topology.Config{Pods: 2, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2}
)

var specs = []*spec{
	{
		name: "wire-replay",
		why:  "the deployed path with the engine's cost removed: transport (codec, acks, checkpoint), the net collector and analysis do all the work",
		kind: kindWire, epochsPerSecond: 110, warm: 100,
		failures: 20, rate: 0.05, topo: topology.DefaultSimConfig, tinyTopo: tinyFlowTopo,
		grace: 2,
	},
	{
		name: "lanes-lossy",
		why:  "the same settle layer fed through lossy lanes (drops, duplicates, late arrivals, retries) and no transport, so a wire-only change predicts no movement",
		kind: kindLanes, epochsPerSecond: 240, warm: 240,
		failures: 20, rate: 0.05, topo: topology.DefaultSimConfig, tinyTopo: tinyFlowTopo,
		// Three retry rounds fit into a grace of 4 under the linear backoff
		// (cycles x, x+1, x+3), which leaves a report lost with probability
		// Drop^4: the contract wants workloads on which no operation fails.
		grace: 4, maxRetries: 3,
		faults: ingest.FaultConfig{Drop: 0.005, Duplicate: 0.02, Delay: 0.03, DelayMax: 2},
	},
	{
		name: "flow-dc-delta",
		why:  "netem's incremental delta path and analysis/vote over a 142,848-link tally; set-up carries the fused full epoch (traffic+ecmp+netem)",
		kind: kindFlowDelta, epochsPerSecond: 260, warm: 80,
		failures: 5, rate: deltaRates[0], topo: topology.DatacenterSimConfig.Flatten(), tinyTopo: tinyFlowTopo,
	},
	{
		name: "packet-dc",
		why:  "cluster/fabric/des/wire do nearly all the work on 32 pods, so a packet-plane change must move it and a collector-side change must not",
		kind: kindPacket, epochsPerSecond: 8.5, warm: 8,
		failures: 1, rate: 0.01, topo: topology.DatacenterPacketConfig.Flatten(), tinyTopo: tinyPacketTopo,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef declares one reported metric; BENCHMARK.json repeats these.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

var e2eMetrics = []metricDef{
	{"epochs_per_s", "1/s", true},
	{"verdict_ms_p50", "ms", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
	{"delivered_share", "ratio", true},
}

var layerMetrics = []metricDef{
	{"topology.build_ms", "ms", false},
	{"engine.new_ms", "ms", false},
	{"netem.full_step_ms", "ms", false},
	{"engine.step_ms_p50", "ms", false},
	{"engine.step_share", "ratio", false},
	{"engine.reports_per_epoch", "count", true},
	{"engine.flows_per_epoch", "count", true},
	{"loadgen.step_ms_p50", "ms", false},
	{"netem.delta_allocs_per_epoch", "count", false},
	{"netem.delta_alloc_kb_per_epoch", "kB", false},
	{"analysis.analyze_ms_p50", "ms", false},
	{"analysis.analyze_share", "ratio", false},
	{"analysis.allocs_per_epoch", "count", false},
	{"vote.sort_ms_p50", "ms", false},
	{"vote.tally_ms_p50", "ms", false},
	{"vote.rank_ms_p50", "ms", false},
	{"vote.detect_ms_p50", "ms", false},
	{"vote.classify_ms_p50", "ms", false},
	{"ingest.cycle_ms_p50", "ms", false},
	{"ingest.overhead_ms_per_epoch", "ms", false},
	{"ingest.verdict_ms_tail", "ms", false},
	{"ingest.accepted_per_epoch", "count", true},
	{"ingest.duplicates_per_epoch", "count", false},
	{"ingest.late_per_epoch", "count", false},
	{"ingest.retries_per_epoch", "count", false},
	{"ingest.recovered_per_epoch", "count", true},
	{"ingest.lost_per_epoch", "count", false},
	{"ingest.recovered_share", "ratio", true},
	{"transport.encode_ns_per_report", "ns", false},
	{"transport.decode_ns_per_report", "ns", false},
	{"transport.bytes_per_report", "B", false},
	{"transport.token_codec_us", "us", false},
	{"transport.codec_share", "ratio", false},
	{"transport.commit_ms_p50", "ms", false},
	{"transport.commit_share", "ratio", false},
	{"transport.frames_per_epoch", "count", false},
	{"transport.frames_resent", "count", false},
	{"transport.resumes", "count", false},
	{"transport.wire_overhead_ms_per_epoch", "ms", false},
	{"des.ns_per_event", "ns", false},
	{"wire.tcp_codec_ns", "ns", false},
	{"cluster.drops_per_epoch", "count", false},
	{"proc.cpu_ms_per_epoch", "ms", false},
	{"proc.allocs_per_epoch", "count", false},
	{"proc.alloc_kb_per_epoch", "kB", false},
	{"proc.gc_cycles_per_epoch", "count", false},
	{"window.epochs_per_s_mean", "1/s", true},
	{"trace.overhead_share", "ratio", false},
}
