package ecmp

import (
	"errors"
	"fmt"

	"vigil/internal/topology"
)

// Path is a resolved route between two hosts.
type Path struct {
	Links    []topology.LinkID   // in traversal order, host uplink first
	Switches []topology.SwitchID // switches visited, in order
}

// Len returns the number of links, the h of the paper's 1/h vote value.
func (p Path) Len() int { return len(p.Links) }

// Router resolves paths over a topology using per-switch ECMP hashing.
type Router struct {
	Topo  *topology.Topology
	Seeds *Seeds
}

// NewRouter builds a Router.
func NewRouter(topo *topology.Topology, seeds *Seeds) *Router {
	return &Router{Topo: topo, Seeds: seeds}
}

// ErrNoRoute is returned when forwarding cannot reach the destination.
var ErrNoRoute = errors.New("ecmp: no route to destination")

// NextHopLink picks the egress link at switch sw for a packet with tuple t
// destined to host dst, using the switch's seeded hash for upward choices.
// Downward forwarding is deterministic (a Clos has exactly one down path
// from any switch to a host in its subtree), so only the choosing branches
// hash. It is the packet plane's per-hop primitive; PathInto walks the same
// choices by tier.
func (r *Router) NextHopLink(sw topology.SwitchID, t FiveTuple, dst topology.HostID) (topology.LinkID, error) {
	topo := r.Topo
	s := &topo.Switches[sw]
	d := &topo.Hosts[dst]
	switch s.Tier {
	case topology.TierToR:
		if d.ToR == sw {
			return s.Downlinks[d.Index], nil
		}
		if len(s.Uplinks) == 0 {
			return topology.NoLink, ErrNoRoute
		}
		return s.Uplinks[r.choose(sw, t, len(s.Uplinks))], nil
	case topology.TierT1:
		if d.Pod == s.Pod {
			return s.Downlinks[topo.Switches[d.ToR].Index], nil
		}
		if len(s.Uplinks) == 0 {
			return topology.NoLink, ErrNoRoute
		}
		return s.Uplinks[r.choose(sw, t, len(s.Uplinks))], nil
	case topology.TierT2:
		n1 := topo.Cfg.T1PerPod
		return s.Downlinks[d.Pod*n1+r.choose(sw, t, n1)], nil
	}
	return topology.NoLink, fmt.Errorf("ecmp: unknown tier %v", s.Tier)
}

// choose is switch sw's ECMP pick among n equal-cost ports for tuple t. It
// is the one choice both NextHopLink and PathInto route by.
func (r *Router) choose(sw topology.SwitchID, t FiveTuple, n int) int {
	return int(Hash(t, r.Seeds.Seed(sw)) % uint64(n))
}

// MaxPathLinks bounds the link count of any resolved path: a Clos
// host-to-host route has at most 6 links (host→ToR→T1→T2→T1→ToR→host).
// Fixed-size per-flow scratch (PathBuf, per-link drop vectors) is sized by
// this constant.
const MaxPathLinks = 6

// PathBuf is a caller-owned, reusable buffer that PathInto resolves into.
// It exists so the epoch hot path can route millions of flows without a
// single heap allocation: each simulator worker keeps one PathBuf and
// overwrites it per flow. The Links/Switches accessors return views into the
// buffer — valid only until the next PathInto call on the same buffer;
// callers that keep a path must copy it out (see netem's outcome arenas).
type PathBuf struct {
	links    [MaxPathLinks]topology.LinkID
	switches [MaxPathLinks]topology.SwitchID
	nl, ns   int
}

// Links returns the resolved links in traversal order, host uplink first.
// The slice aliases the buffer.
func (b *PathBuf) Links() []topology.LinkID { return b.links[:b.nl] }

// Switches returns the switches visited in order. The slice aliases the
// buffer.
func (b *PathBuf) Switches() []topology.SwitchID { return b.switches[:b.ns] }

// Len returns the number of links, the h of the paper's 1/h vote value.
func (b *PathBuf) Len() int { return b.nl }

// PathInto resolves the full route from src to dst for tuple t into buf,
// overwriting its previous contents. It performs no heap allocation on the
// success path and resolves the route NextHopLink's hop-by-hop walk would.
// Same-host src/dst is an error; the paper's traffic model never produces it.
//
// The walk goes straight down the tiers, never reading topo.Links: the Clos
// port order (topology.Switch) fixes every next switch. ToR.Uplinks[j]
// reaches T1(pod, j), T1.Uplinks[l] reaches T2(l), and
// T2.Downlinks[pod·n1+k] reaches T1(pod, k); the T1 and ToR down hops are
// the destination host's. Only the source ToR, the source T1 and the T2
// choose, so only they hash.
func (r *Router) PathInto(src, dst topology.HostID, t FiveTuple, buf *PathBuf) error {
	buf.nl, buf.ns = 0, 0
	if src == dst {
		return fmt.Errorf("ecmp: src and dst are both host %d", src)
	}
	topo := r.Topo
	s, d := &topo.Hosts[src], &topo.Hosts[dst]
	tor := &topo.Switches[s.ToR]
	buf.links[0] = s.Uplink
	buf.switches[0] = s.ToR
	if d.ToR == s.ToR {
		buf.links[1] = tor.Downlinks[d.Index]
		buf.nl, buf.ns = 2, 1
		return nil
	}
	if len(tor.Uplinks) == 0 {
		return ErrNoRoute
	}
	j := r.choose(s.ToR, t, len(tor.Uplinks))
	t1 := topo.T1(s.Pod, j)
	buf.links[1] = tor.Uplinks[j]
	buf.switches[1] = t1
	nl, ns := 2, 2
	if d.Pod != s.Pod {
		up := &topo.Switches[t1]
		if len(up.Uplinks) == 0 {
			return ErrNoRoute
		}
		l := r.choose(t1, t, len(up.Uplinks))
		t2 := topo.T2(l)
		n1 := topo.Cfg.T1PerPod
		k := r.choose(t2, t, n1)
		buf.links[2] = up.Uplinks[l]
		buf.switches[2] = t2
		buf.links[3] = topo.Switches[t2].Downlinks[d.Pod*n1+k]
		t1 = topo.T1(d.Pod, k)
		buf.switches[3] = t1
		nl, ns = 4, 4
	}
	dstToR := &topo.Switches[d.ToR]
	buf.links[nl] = topo.Switches[t1].Downlinks[dstToR.Index]
	buf.links[nl+1] = dstToR.Downlinks[d.Index]
	buf.switches[ns] = d.ToR
	buf.nl, buf.ns = nl+2, ns+1
	return nil
}

// Path resolves the full route from src to dst for tuple t. It is the
// allocating convenience form of PathInto — cold paths (traceroute CLIs, the
// packet plane) keep using it; the simulator hot path uses PathInto.
func (r *Router) Path(src, dst topology.HostID, t FiveTuple) (Path, error) {
	var buf PathBuf
	if err := r.PathInto(src, dst, t, &buf); err != nil {
		return Path{}, err
	}
	p := Path{
		Links:    make([]topology.LinkID, buf.nl),
		Switches: make([]topology.SwitchID, buf.ns),
	}
	copy(p.Links, buf.links[:buf.nl])
	copy(p.Switches, buf.switches[:buf.ns])
	return p, nil
}
