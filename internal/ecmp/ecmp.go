// Package ecmp implements equal-cost multi-path routing over the Clos
// topology: per-switch seeded five-tuple hashing, next-hop selection and
// full path resolution.
//
// Two properties matter to 007 and are preserved here exactly as the paper
// describes (§4.2, §9.1): all packets of a five-tuple follow one path, so a
// traceroute probe carrying the flow's five-tuple traces the data path; and
// the hash functions are per-switch and seeded, with seeds that change when
// a switch reboots, so paths are not predictable from the topology alone.
package ecmp

import (
	"fmt"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// FiveTuple identifies a flow. ECMP hashing is directional: the forward and
// reverse directions of a connection may take different physical paths.
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// ProtoTCP is the protocol number of the emulation's flows.
const ProtoTCP uint8 = 6

// String renders the tuple in "ip:port>ip:port/proto" form.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d",
		topology.FormatIP(t.SrcIP), t.SrcPort,
		topology.FormatIP(t.DstIP), t.DstPort, t.Proto)
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: t.DstIP, DstIP: t.SrcIP,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto,
	}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash maps a five-tuple to a 64-bit value under a switch seed. Switch
// vendors keep these functions proprietary (§9.1); any hash with good
// avalanche reproduces the behaviour 007 depends on, which is only that the
// map is deterministic per switch and uniform across flows.
func Hash(t FiveTuple, seed uint64) uint64 {
	a := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	b := uint64(t.SrcPort)<<32 | uint64(t.DstPort)<<16 | uint64(t.Proto)
	h := mix64(seed ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ a)
	h = mix64(h ^ b)
	return h
}

// Seeds holds the per-switch ECMP hash seeds.
type Seeds struct {
	bySwitch []uint64
}

// NewSeeds draws an independent seed for every switch.
func NewSeeds(topo *topology.Topology, rng *stats.RNG) *Seeds {
	s := &Seeds{bySwitch: make([]uint64, len(topo.Switches))}
	for i := range s.bySwitch {
		s.bySwitch[i] = rng.Uint64()
	}
	return s
}

// seed returns the seed of switch sw.
func (s *Seeds) seed(sw topology.SwitchID) uint64 { return s.bySwitch[sw] }
