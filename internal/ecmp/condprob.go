package ecmp

import (
	"vigil/internal/topology"
)

// This file computes link on-path probabilities under the paper's traffic
// and routing model (Remark 1): the source host is uniform, the destination
// is a uniform host under a uniformly chosen *different* ToR, and every
// upward ECMP choice is uniform and independent.
//
// Algorithm 1 adjusts the votes of links that share paths with the
// top-voted link lmax by "finding what fraction of these flows go through k
// by assuming ECMP distributes flows uniformly at random" (§5.1). That
// fraction is the conditional probability P(k on path | lmax on path)
// computed here in closed form per (source ToR, destination ToR) pair.

// linkCond captures the constraints a link places on a flow between a fixed
// ToR pair: which host endpoints it pins and which ECMP choices it fixes.
// Choice dimensions: c1 = T1 index picked at the source ToR, c2 = T2 index
// picked at the source-side T1 (cross-pod flows only), c3 = T1 index picked
// at the T2 toward the destination pod (cross-pod flows only).
type linkCond struct {
	ok               bool
	srcHost, dstHost int32 // pinned host IDs, -1 if free
	c1, c2, c3       int   // pinned choice indices, -1 if free
}

var freeCond = linkCond{ok: true, srcHost: -1, dstHost: -1, c1: -1, c2: -1, c3: -1}

// condFor returns the constraints link id places on flows from ToR s to
// ToR d (s != d). ok=false means the link cannot lie on any such flow.
func condFor(topo *topology.Topology, id topology.LinkID, s, d topology.SwitchID) linkCond {
	link := &topo.Links[id]
	sToR := &topo.Switches[s]
	dToR := &topo.Switches[d]
	cross := sToR.Pod != dToR.Pod
	c := freeCond
	switch link.Class {
	case topology.HostUp:
		h := &topo.Hosts[link.From.ID]
		if h.ToR != s {
			return linkCond{}
		}
		c.srcHost = int32(h.ID)
	case topology.HostDown:
		h := &topo.Hosts[link.To.ID]
		if h.ToR != d {
			return linkCond{}
		}
		c.dstHost = int32(h.ID)
	case topology.L1Up:
		if topology.SwitchID(link.From.ID) != s {
			return linkCond{}
		}
		c.c1 = topo.Switches[link.To.ID].Index
	case topology.L1Down:
		if topology.SwitchID(link.To.ID) != d {
			return linkCond{}
		}
		j := topo.Switches[link.From.ID].Index
		if cross {
			c.c3 = j
		} else {
			c.c1 = j
		}
	case topology.L2Up:
		if !cross || topo.Switches[link.From.ID].Pod != sToR.Pod {
			return linkCond{}
		}
		c.c1 = topo.Switches[link.From.ID].Index
		c.c2 = topo.Switches[link.To.ID].Index
	case topology.L2Down:
		if !cross || topo.Switches[link.To.ID].Pod != dToR.Pod {
			return linkCond{}
		}
		c.c2 = topo.Switches[link.From.ID].Index
		c.c3 = topo.Switches[link.To.ID].Index
	}
	return c
}

// merge combines two constraint sets; ok=false on conflict.
func merge(a, b linkCond) linkCond {
	if !a.ok || !b.ok {
		return linkCond{}
	}
	pick32 := func(x, y int32) (int32, bool) {
		if x == -1 {
			return y, true
		}
		if y == -1 || x == y {
			return x, true
		}
		return 0, false
	}
	pick := func(x, y int) (int, bool) {
		if x == -1 {
			return y, true
		}
		if y == -1 || x == y {
			return x, true
		}
		return 0, false
	}
	var out linkCond
	var ok bool
	out.ok = true
	if out.srcHost, ok = pick32(a.srcHost, b.srcHost); !ok {
		return linkCond{}
	}
	if out.dstHost, ok = pick32(a.dstHost, b.dstHost); !ok {
		return linkCond{}
	}
	if out.c1, ok = pick(a.c1, b.c1); !ok {
		return linkCond{}
	}
	if out.c2, ok = pick(a.c2, b.c2); !ok {
		return linkCond{}
	}
	if out.c3, ok = pick(a.c3, b.c3); !ok {
		return linkCond{}
	}
	return out
}

// prob returns the probability that a random flow between the fixed ToR
// pair satisfies the constraints.
func (c linkCond) prob(cfg topology.Config) float64 {
	if !c.ok {
		return 0
	}
	p := 1.0
	if c.srcHost != -1 {
		p /= float64(cfg.HostsPerToR)
	}
	if c.dstHost != -1 {
		p /= float64(cfg.HostsPerToR)
	}
	if c.c1 != -1 {
		p /= float64(cfg.T1PerPod)
	}
	if c.c2 != -1 {
		p /= float64(cfg.T2)
	}
	if c.c3 != -1 {
		p /= float64(cfg.T1PerPod)
	}
	return p
}

// CondCalc computes P(k on path | a on path) for a fixed link a under the
// uniform traffic and ECMP model. Build one per Algorithm 1 iteration.
type CondCalc struct {
	topo *topology.Topology
	a    topology.LinkID
	// conds[s*nToR+d] caches a's constraint for each ordered ToR pair.
	conds []linkCond
	tors  []topology.SwitchID
	pa    float64 // unnormalized P(a on path)
}

// NewCondCalc prepares the calculator for link a.
func NewCondCalc(topo *topology.Topology, a topology.LinkID) *CondCalc {
	nPods := topo.Cfg.Pods
	n0 := topo.Cfg.ToRsPerPod
	cc := &CondCalc{topo: topo, a: a}
	cc.tors = make([]topology.SwitchID, 0, nPods*n0)
	for p := 0; p < nPods; p++ {
		for i := 0; i < n0; i++ {
			cc.tors = append(cc.tors, topo.ToR(p, i))
		}
	}
	n := len(cc.tors)
	cc.conds = make([]linkCond, n*n)
	for si, s := range cc.tors {
		for di, d := range cc.tors {
			if s == d {
				continue
			}
			c := condFor(topo, a, s, d)
			cc.conds[si*n+di] = c
			cc.pa += c.prob(topo.Cfg)
		}
	}
	return cc
}

// Cond returns P(b on path | a on path); 0 when a is never on a path.
func (cc *CondCalc) Cond(b topology.LinkID) float64 {
	if cc.pa == 0 {
		return 0
	}
	if b == cc.a {
		return 1
	}
	n := len(cc.tors)
	var joint float64
	for si, s := range cc.tors {
		row := cc.conds[si*n:]
		for di, d := range cc.tors {
			ca := row[di]
			if !ca.ok || s == d {
				continue
			}
			cb := condFor(cc.topo, b, s, d)
			if !cb.ok {
				continue
			}
			joint += merge(ca, cb).prob(cc.topo.Cfg)
		}
	}
	return joint / cc.pa
}
