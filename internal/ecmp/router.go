package ecmp

import (
	"errors"
	"fmt"
	"math/bits"

	"vigil/internal/topology"
)

// Router resolves paths over a topology using per-switch ECMP hashing.
type Router struct {
	topo  *topology.Topology
	seeds *Seeds
	clos  clos
}

// NewRouter builds a Router.
func NewRouter(topo *topology.Topology, seeds *Seeds) *Router {
	return &Router{topo: topo, seeds: seeds, clos: newClos(topo.Cfg)}
}

// errNoRoute is returned when forwarding cannot reach the destination.
var errNoRoute = errors.New("ecmp: no route to destination")

// NextHopLink picks the egress link at switch sw for a packet with tuple t
// destined to host dst, using the switch's seeded hash for upward choices.
// Downward forwarding is deterministic (a Clos has exactly one down path
// from any switch to a host in its subtree), so only the choosing branches
// hash. It is the packet plane's per-hop primitive; picks makes the same
// choices by tier.
func (r *Router) NextHopLink(sw topology.SwitchID, t FiveTuple, dst topology.HostID) (topology.LinkID, error) {
	topo := r.topo
	s := &topo.Switches[sw]
	d := &topo.Hosts[dst]
	switch s.Tier {
	case topology.TierToR:
		if d.ToR == sw {
			return s.Downlinks[d.Index], nil
		}
		if len(s.Uplinks) == 0 {
			return topology.NoLink, errNoRoute
		}
		return s.Uplinks[r.choose(sw, t, len(s.Uplinks))], nil
	case topology.TierT1:
		if d.Pod == s.Pod {
			return s.Downlinks[topo.Switches[d.ToR].Index], nil
		}
		if len(s.Uplinks) == 0 {
			return topology.NoLink, errNoRoute
		}
		return s.Uplinks[r.choose(sw, t, len(s.Uplinks))], nil
	case topology.TierT2:
		n1 := topo.Cfg.T1PerPod
		return s.Downlinks[d.Pod*n1+r.choose(sw, t, n1)], nil
	}
	return topology.NoLink, fmt.Errorf("ecmp: unknown tier %v", s.Tier)
}

// choose is switch sw's ECMP pick among n equal-cost ports for tuple t. It
// is the one choice both NextHopLink and picks route by.
func (r *Router) choose(sw topology.SwitchID, t FiveTuple, n int) int {
	return int(Hash(t, r.seeds.seed(sw)) % uint64(n))
}

// MaxPathLinks bounds the link count of any resolved path: a Clos
// host-to-host route has at most 6 links (host→ToR→T1→T2→T1→ToR→host).
// Fixed-size per-flow scratch (PathBuf, per-link drop vectors) is sized by
// this constant.
const MaxPathLinks = 6

// PathBuf is a caller-owned, reusable buffer that PathInto resolves into.
// It exists so the epoch hot path can route millions of flows without a
// single heap allocation: each simulator worker keeps one PathBuf and
// overwrites it per flow. Links returns a view into the buffer — valid only
// until the next PathInto call on the same buffer; callers that keep a path
// must copy it out (see netem's outcome arenas).
type PathBuf struct {
	links [MaxPathLinks]topology.LinkID
	nl    int
	c     Choices
}

// Links returns the resolved links in traversal order, host uplink first.
// The slice aliases the buffer.
func (b *PathBuf) Links() []topology.LinkID { return b.links[:b.nl] }

// Choices returns the ECMP picks the buffer's path was built from.
func (b *PathBuf) Choices() Choices { return b.c }

// Choices are the ECMP picks that, with its end hosts, fix a route: the
// source ToR's uplink (torUp), and on a route between pods the source T1's
// uplink (t1Up) and the T2's down choice, the T1 it enters the destination
// pod by (t2Down). A pick the route does not make is 0. Each pick is below
// a port count that topology.Config.Validate caps at 255, so it fits a
// byte.
type Choices struct{ torUp, t1Up, t2Down uint8 }

// PathInto resolves the full route from src to dst for tuple t into buf,
// overwriting its previous contents: picks, then Build. It performs no
// heap allocation on the success path and resolves the route NextHopLink's
// hop-by-hop walk would. Same-host src/dst is an error, and leaves buf
// empty; the paper's traffic model never produces it.
func (r *Router) PathInto(src, dst topology.HostID, t FiveTuple, buf *PathBuf) error {
	if src == dst {
		buf.nl = 0
		return fmt.Errorf("ecmp: src and dst are both host %d", src)
	}
	r.Build(src, dst, r.picks(src, dst, t), buf)
	return nil
}

// picks hashes the route from src to dst for tuple t at the switches that
// choose among equal-cost ports — the source ToR, and on a route between
// pods the source T1 and the T2 — and returns their picks. Every ToR has
// T1PerPod uplinks and every T1 T2 of them, and a fabric of more than one
// pod has tier-2 switches (topology.Config.Validate), so every pick has
// a port to take.
func (r *Router) picks(src, dst topology.HostID, t FiveTuple) Choices {
	g := &r.clos
	st, dt := g.tor(src), g.tor(dst)
	if st == dt {
		return Choices{}
	}
	sp, dp := g.pod(st), g.pod(dt)
	j := r.choose(g.torSwitch(st, sp), t, int(g.n1))
	c := Choices{torUp: uint8(j)}
	if sp != dp {
		l := r.choose(g.t1Switch(sp, int32(j)), t, int(g.n2))
		c.t1Up = uint8(l)
		c.t2Down = uint8(r.choose(g.t2Switch(int32(l)), t, int(g.n1)))
	}
	return c
}

// Build lays out the route from src to dst that picks c make into buf,
// overwriting its previous contents; src and dst must differ. It reads no
// hash and no table: the fabric's numbering (clos) fixes every link from
// the hosts' ToR and pod indexes and the picks. The route leaves the
// source ToR by uplink j to T1 j of its pod; between pods it climbs that
// T1's uplink l to T2 l and comes down to T1 k of the destination pod;
// then it descends to the destination ToR and host.
func (r *Router) Build(src, dst topology.HostID, c Choices, buf *PathBuf) {
	g := &r.clos
	buf.c = c
	buf.links[0] = hostUp(src)
	st, dt := g.tor(src), g.tor(dst)
	if st == dt {
		buf.links[1] = hostUp(dst) + 1
		buf.nl = 2
		return
	}
	j := int32(c.torUp)
	buf.links[1] = g.l1Up(st, j)
	t1, nl := j, 2
	if sp, dp := g.pod(st), g.pod(dt); sp != dp {
		l, k := int32(c.t1Up), int32(c.t2Down)
		buf.links[2] = g.l2Up(sp, j, l)
		buf.links[3] = g.l2Up(dp, k, l) + 1
		t1, nl = k, 4
	}
	buf.links[nl] = g.l1Up(dt, t1) + 1
	buf.links[nl+1] = hostUp(dst) + 1
	buf.nl = nl + 2
}

// clos is the fabric's numbering (topology.New) as arithmetic on the
// configuration: host h sits under the h/HostsPerToR-th ToR of the fabric,
// ToR t in pod t/ToRsPerPod, and every switch and link ID of a route
// follows from those indexes and its picks.
type clos struct {
	perToR, perPod divisor // HostsPerToR, ToRsPerPod
	n0, n1, n2     int32   // ToRsPerPod, T1PerPod, T2
	t2Base         int32   // the first T2's SwitchID
	l1Base, l2Base int32   // the uplink IDs of the first ToR–T1 and T1–T2 pairs
}

func newClos(cfg topology.Config) clos {
	hosts := int32(cfg.Hosts())
	n0, n1, n2 := int32(cfg.ToRsPerPod), int32(cfg.T1PerPod), int32(cfg.T2)
	pods := int32(cfg.Pods)
	return clos{
		perToR: newDivisor(cfg.HostsPerToR),
		perPod: newDivisor(cfg.ToRsPerPod),
		n0:     n0, n1: n1, n2: n2,
		t2Base: pods * (n0 + n1),
		l1Base: 2 * hosts,
		l2Base: 2*hosts + 2*pods*n0*n1,
	}
}

// tor returns the fabric-wide index of host h's ToR; pod, the pod of ToR t.
func (g *clos) tor(h topology.HostID) int32 { return g.perToR.div(int32(h)) }
func (g *clos) pod(t int32) int32           { return g.perPod.div(t) }

// torSwitch, t1Switch and t2Switch are the switch IDs of ToR t (in pod p),
// of T1 j of pod p and of T2 l: each pod numbers its ToRs then its T1s,
// and the T2s follow the last pod.
func (g *clos) torSwitch(t, p int32) topology.SwitchID { return topology.SwitchID(t + p*g.n1) }
func (g *clos) t1Switch(p, j int32) topology.SwitchID {
	return topology.SwitchID(p*(g.n0+g.n1) + g.n0 + j)
}
func (g *clos) t2Switch(l int32) topology.SwitchID { return topology.SwitchID(g.t2Base + l) }

// Links come in pairs, the uplink then its reverse: host h's pair first,
// then each ToR's pairs with its pod's T1s, then each T1's pairs with the
// T2s. hostUp(h)+1 is the ToR's downlink to h; l1Up(t, j)+1 is T1 j's
// downlink to ToR t, and l2Up(p, j, l)+1 T2 l's downlink to T1 j of pod p.
func hostUp(h topology.HostID) topology.LinkID { return topology.LinkID(2 * h) }
func (g *clos) l1Up(t, j int32) topology.LinkID {
	return topology.LinkID(g.l1Base + 2*(t*g.n1+j))
}
func (g *clos) l2Up(p, j, l int32) topology.LinkID {
	return topology.LinkID(g.l2Base + 2*((p*g.n1+j)*g.n2+l))
}

// divisor divides a non-negative int32 by a fixed d with a multiply:
// ⌊n/d⌋ = ⌊m·n / 2⁶⁴⌋ for m = ⌈2⁶⁴/d⌉ and every 32-bit n (Lemire, Kaser
// and Kurz, "Faster remainder by direct computation", 2019). m overflows
// to 0 for d = 1, which div reads as the identity.
type divisor struct{ m uint64 }

func newDivisor(d int) divisor { return divisor{m: ^uint64(0)/uint64(d) + 1} }

func (v divisor) div(n int32) int32 {
	if v.m == 0 {
		return n
	}
	q, _ := bits.Mul64(v.m, uint64(n))
	return int32(q)
}
