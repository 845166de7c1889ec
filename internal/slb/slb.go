// Package slb models the Ananta-style software load balancer of §4.2: TCP
// connections are established to a virtual IP (VIP); the SLB assigns each
// new flow a physical destination IP (DIP) from the VIP's pool and
// registers the mapping with the source hypervisor's vSwitch, after which
// data packets carry the DIP and bypass the SLB.
//
// 007's path discovery cares about one thing here: before tracing a flow it
// must learn the flow's DIP, and the paper argues the SLB (not the vSwitch)
// is the reliable place to ask — a failure that kills the connection may
// already have flushed the vSwitch entry. The SLB query is modelled, along
// with injectable query failures ("path discovery is not triggered when the
// query to the SLB fails, to avoid tracerouting the internet").
package slb

import (
	"fmt"

	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

// FlowKey identifies a load-balanced connection from a source host to a
// VIP-fronted service.
type FlowKey struct {
	SrcIP   uint32
	SrcPort uint16
	VIP     uint32
	VIPPort uint16
}

// SLB is the load balancer control plane.
type SLB struct {
	topo *topology.Topology
	rng  *stats.RNG

	pools map[uint32][]topology.HostID // VIP → DIP pool (as hosts)
	// assignments is the SLB's authoritative flow table.
	assignments map[FlowKey]topology.HostID

	// Test hook: QueryFailRate injects SLB query failures, which the
	// lookup-failure test needs.
	QueryFailRate float64
	// Queries counts DIP lookups served (for overhead accounting).
	Queries int64
}

// New builds an SLB over the topology.
func New(topo *topology.Topology, rng *stats.RNG) *SLB {
	return &SLB{
		topo:        topo,
		rng:         rng,
		pools:       make(map[uint32][]topology.HostID),
		assignments: make(map[FlowKey]topology.HostID),
	}
}

// RegisterVIP announces a service VIP backed by the given hosts. VIPs live
// in 10.255.0.0/16, outside the topology's physical address plan.
func (s *SLB) RegisterVIP(vip uint32, backends []topology.HostID) error {
	if _, clash := s.topo.LookupIP(vip); clash {
		return fmt.Errorf("slb: VIP %s collides with a physical address", topology.FormatIP(vip))
	}
	if len(backends) == 0 {
		return fmt.Errorf("slb: VIP %s has no backends", topology.FormatIP(vip))
	}
	s.pools[vip] = append([]topology.HostID(nil), backends...)
	return nil
}

// VIP returns a conventional VIP address for service index i.
func VIP(i int) uint32 { return 10<<24 | 255<<16 | uint32(i>>8)<<8 | uint32(i&0xff) }

// Connect handles a SYN to a VIP: pick a DIP for the flow and record the
// assignment. It returns the DIP host. This is the paper's
// connection-establishment path.
func (s *SLB) Connect(src topology.HostID, srcPort uint16, vip uint32, vipPort uint16) (topology.HostID, error) {
	dip, ok := s.Pick(src, srcPort, vip, vipPort)
	if !ok {
		return 0, fmt.Errorf("slb: unknown VIP %s", topology.FormatIP(vip))
	}
	s.assignments[FlowKey{SrcIP: s.topo.Hosts[src].IP, SrcPort: srcPort, VIP: vip, VIPPort: vipPort}] = dip
	return dip, nil
}

// Pick returns the DIP Connect would assign the flow, recording nothing;
// ok is false when vip is not a registered VIP.
func (s *SLB) Pick(src topology.HostID, srcPort uint16, vip uint32, vipPort uint16) (dip topology.HostID, ok bool) {
	pool, ok := s.pools[vip]
	if !ok {
		return 0, false
	}
	return pool[int(ecmp.Hash(ecmp.FiveTuple{
		SrcIP: s.topo.Hosts[src].IP, DstIP: vip, SrcPort: srcPort, DstPort: vipPort, Proto: ecmp.ProtoTCP,
	}, 0x5b5b5b5b)%uint64(len(pool)))], true
}

// QuerySLB asks the load balancer for a flow's DIP — 007's preferred
// lookup (§4.2). ok is false if the query failed (injected failure or
// unknown flow); 007 must then skip the traceroute.
func (s *SLB) QuerySLB(key FlowKey) (topology.HostID, bool) {
	s.Queries++
	if s.QueryFailRate > 0 && s.rng.Bool(s.QueryFailRate) {
		return 0, false
	}
	dip, ok := s.assignments[key]
	return dip, ok
}

// IsVIP reports whether addr is a registered VIP.
func (s *SLB) IsVIP(addr uint32) bool {
	_, ok := s.pools[addr]
	return ok
}
