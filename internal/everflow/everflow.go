// Package everflow reproduces the EverFlow-style packet mirroring the
// paper uses as ground truth (§7, §8.2): selected switches mirror matching
// packets to a collector, which can then reconstruct any mirrored flow's
// exact switch-level path and, for packets that never reached the
// destination, the link on which they died.
//
// The paper's point — and the reason 007 exists — is that this is far too
// expensive to run always-on for all traffic ("it is expensive to run for
// extended periods"; they captured 9 hosts for 5 hours). The collector
// therefore takes a filter and accounts its own observation volume.
package everflow

import (
	"vigil/internal/ecmp"
	"vigil/internal/fabric"
	"vigil/internal/topology"
)

// PacketKey identifies one mirrored packet: its flow and sequence number.
type PacketKey struct {
	Tuple ecmp.FiveTuple
	Seq   uint32
}

// Collector accumulates mirror observations.
type Collector struct {
	topo *topology.Topology
	// filter selects which packets to mirror; nil mirrors everything.
	filter func(ev fabric.TapEvent) bool

	// lastEgress records each packet's most recent forwarding decision.
	lastEgress map[PacketKey]topology.LinkID
	// chains collects the ordered egress links of each of a flow's first
	// few packets; the longest chain is the complete data path even when
	// some of those packets died en route (ECMP keeps all of them on one
	// path).
	chains map[PacketKey][]topology.LinkID
	// dropped records mirror-confirmed drop sites.
	dropped map[PacketKey]topology.LinkID

	Observations int64
}

// chainSeqs is how many of a flow's leading sequence numbers have their
// full egress chains retained for path reconstruction.
const chainSeqs = 4

// New builds a collector. filter limits mirroring (e.g. to the 9 sampled
// hosts of §8.2); nil mirrors all traffic.
func New(topo *topology.Topology, filter func(ev fabric.TapEvent) bool) *Collector {
	return &Collector{
		topo:       topo,
		filter:     filter,
		lastEgress: make(map[PacketKey]topology.LinkID),
		chains:     make(map[PacketKey][]topology.LinkID),
		dropped:    make(map[PacketKey]topology.LinkID),
	}
}

// SourceHostFilter mirrors only packets originating at the given hosts —
// the §8.2 configuration ("capture all outgoing IP traffic from 9 random
// hosts").
func SourceHostFilter(topo *topology.Topology, hosts []topology.HostID) func(fabric.TapEvent) bool {
	ips := make(map[uint32]bool, len(hosts))
	for _, h := range hosts {
		ips[topo.Hosts[h].IP] = true
	}
	return func(ev fabric.TapEvent) bool { return ips[ev.IP.Src] }
}

// Tap returns the fabric tap feeding this collector.
func (c *Collector) Tap() fabric.Tap {
	return func(ev fabric.TapEvent) {
		if c.filter != nil && !c.filter(ev) {
			return
		}
		if ev.IP.ID != 0 {
			return // 007 probe (TTL echoed in IP ID); mirror data only
		}
		tuple := ecmp.FiveTuple{
			SrcIP: ev.IP.Src, DstIP: ev.IP.Dst,
			SrcPort: ev.SrcPort, DstPort: ev.DstPort, Proto: ev.IP.Protocol,
		}
		key := PacketKey{Tuple: tuple, Seq: ev.Seq}
		c.Observations++
		if ev.Dropped {
			c.dropped[key] = ev.Egress
			return
		}
		c.lastEgress[key] = ev.Egress
		if ev.Seq < chainSeqs {
			// ECMP paths are loop-free, so a link already on the chain
			// means a retransmission of this sequence number re-walking
			// the same path; recording each link once reconstructs the
			// path even across partial first attempts.
			chain := c.chains[key]
			seen := false
			for _, l := range chain {
				if l == ev.Egress {
					seen = true
					break
				}
			}
			if !seen {
				c.chains[key] = append(chain, ev.Egress)
			}
		}
	}
}

// PathOf reconstructs the flow's full link path from the mirrors: the
// source host's uplink, then the longest observed egress chain among the
// flow's leading packets. ok is false when the flow was never mirrored.
func (c *Collector) PathOf(tuple ecmp.FiveTuple) ([]topology.LinkID, bool) {
	var egress []topology.LinkID
	ok := false
	for seq := uint32(0); seq < chainSeqs; seq++ {
		if chain, have := c.chains[PacketKey{Tuple: tuple, Seq: seq}]; have {
			ok = true
			if len(chain) > len(egress) {
				egress = chain
			}
		}
	}
	if !ok {
		return nil, false
	}
	src, ok := c.topo.LookupIP(tuple.SrcIP)
	if !ok || src.Kind != topology.NodeHost {
		return nil, false
	}
	path := make([]topology.LinkID, 0, len(egress)+1)
	path = append(path, c.topo.Hosts[src.ID].Uplink)
	path = append(path, egress...)
	return path, true
}

// DropsByLink aggregates mirror-confirmed drops per link for one flow —
// the per-flow ground truth 007's verdicts are compared against in §8.2.
func (c *Collector) DropsByLink(tuple ecmp.FiveTuple) map[topology.LinkID]int {
	out := make(map[topology.LinkID]int)
	for key, l := range c.dropped {
		if key.Tuple == tuple {
			out[l]++
		}
	}
	return out
}

// Culprit returns the link that dropped the most of the flow's packets.
func (c *Collector) Culprit(tuple ecmp.FiveTuple) (topology.LinkID, bool) {
	best := topology.NoLink
	bestN := 0
	for l, n := range c.DropsByLink(tuple) {
		if n > bestN || (n == bestN && best != topology.NoLink && l < best) {
			best, bestN = l, n
		}
	}
	return best, best != topology.NoLink
}
