package topology

import "fmt"

// DatacenterConfig sizes a multi-cluster Clos: Clusters groups of
// PodsPerCluster pods, every pod a standard two-tier (ToR/T1) unit, all
// pods meshed through the shared global T2 spine. This is the datacenter
// shape of the paper's §7 deployment — many per-cluster Clos fabrics whose
// T1 switches uplink into one spine layer — as opposed to the single
// evaluation fabric of §6.
//
// Structurally a cluster is a named contiguous pod range: the flat Clos
// builder already supports arbitrarily many pods on a shared spine, so
// Flatten produces the equivalent single-fabric Config and NewDatacenter
// builds it through the ordinary constructor. What the type adds is the
// datacenter vocabulary (cluster count, pods per cluster) and a scale:
// DatacenterSimConfig crosses the 100k directed link mark that the
// incremental flow plane (netem.Config.Incremental) and the datacenter
// benchmarks target.
type DatacenterConfig struct {
	Clusters       int // pod groups sharing the global spine
	PodsPerCluster int
	ToRsPerPod     int // n0
	T1PerPod       int // n1
	T2             int // n2 (global spine width)
	HostsPerToR    int // H
}

// DatacenterSimConfig is the reference datacenter fabric of the scaling
// benchmarks: 8 clusters × 3 pods = 24 pods, 34,560 hosts, 142,848
// directed links, and — at the paper's default 60 connections per host —
// 2,073,600 flows per epoch.
var DatacenterSimConfig = DatacenterConfig{
	Clusters:       8,
	PodsPerCluster: 3,
	ToRsPerPod:     48,
	T1PerPod:       16,
	T2:             48,
	HostsPerToR:    30,
}

// DatacenterPacketConfig is the packet plane's scale target: the same
// multi-cluster address plan as DatacenterSimConfig, resized for
// packet-granularity emulation. 8 clusters × 4 pods = 32 pods, 256 hosts,
// 3,584 directed links. The flow plane scores ~2M flows per epoch on
// DatacenterSimConfig by sampling per-flow outcomes; the packet plane
// emulates every data packet and ACK, so its datacenter fabric trades
// radix for pod count.
var DatacenterPacketConfig = DatacenterConfig{
	Clusters:       8,
	PodsPerCluster: 4,
	ToRsPerPod:     4,
	T1PerPod:       4,
	T2:             8,
	HostsPerToR:    2,
}

// Validate reports whether the configuration describes a buildable
// datacenter: positive cluster sizing, and the flattened fabric within the
// flat builder's address-plan limits.
func (c DatacenterConfig) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("topology: need at least 1 cluster, have %d", c.Clusters)
	}
	if c.PodsPerCluster < 1 {
		return fmt.Errorf("topology: need at least 1 pod per cluster, have %d", c.PodsPerCluster)
	}
	return c.Flatten().Validate()
}

// Flatten returns the single-fabric Config equivalent to the datacenter:
// cluster k owns the contiguous pods [k·PodsPerCluster, (k+1)·PodsPerCluster).
func (c DatacenterConfig) Flatten() Config {
	return Config{
		Pods:        c.Clusters * c.PodsPerCluster,
		ToRsPerPod:  c.ToRsPerPod,
		T1PerPod:    c.T1PerPod,
		T2:          c.T2,
		HostsPerToR: c.HostsPerToR,
	}
}

// Pods returns the total pod count.
func (c DatacenterConfig) Pods() int { return c.Clusters * c.PodsPerCluster }

// Hosts returns the total host count.
func (c DatacenterConfig) Hosts() int { return c.Flatten().Hosts() }

// DirectedLinks returns the closed-form number of directed links.
func (c DatacenterConfig) DirectedLinks() int { return c.Flatten().DirectedLinks() }

// NewDatacenter builds the multi-cluster fabric. The result is an ordinary
// *Topology — every consumer (routing, traffic, both planes) works
// unchanged; Cfg holds the flattened pod view.
func NewDatacenter(cfg DatacenterConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg.Flatten())
}
