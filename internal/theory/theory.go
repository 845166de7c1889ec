// Package theory implements the analytical results of the paper: the
// ICMP-safe traceroute rate of Theorem 1, and the accuracy machinery of
// Theorem 2 / Theorem 3 (α, the signal-to-noise condition on drop rates,
// and the large-deviation error bound ε).
//
// These are used three ways: the host agent derives its host-side
// rate limit from CtBound; tests cross-check the emulated fabric against
// the bounds; and vigil-lab's theorem1 and theorem2 experiments print them.
package theory

import (
	"math"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

// CtBound returns Theorem 1's upper bound on the per-host traceroute rate
// Ct (traceroutes per second) that keeps every switch's ICMP generation
// below tmax per second:
//
//	Ct ≤ (Tmax / (n0·H)) · min[ n1, n2(n0·npod−1) / (n0(npod−1)) ]
//
// For a single-pod topology no traffic crosses level 2, so only the n1 term
// applies.
func CtBound(cfg topology.Config, tmax float64) float64 {
	n0 := float64(cfg.ToRsPerPod)
	n1 := float64(cfg.T1PerPod)
	n2 := float64(cfg.T2)
	npod := float64(cfg.Pods)
	h := float64(cfg.HostsPerToR)
	m := n1
	if cfg.Pods > 1 {
		l2 := n2 * (n0*npod - 1) / (n0 * (npod - 1))
		if l2 < m {
			m = l2
		}
	}
	return tmax / (n0 * h) * m
}

// MaxBadLinks returns Theorem 2's cap on the number of simultaneously
// detectable bad links, k < n2(n0·npod−1)/(n0(npod−1)). For one pod the
// constraint is vacuous and the total link count is returned.
func MaxBadLinks(cfg topology.Config) float64 {
	if cfg.Pods <= 1 {
		return float64(cfg.DirectedLinks())
	}
	n0 := float64(cfg.ToRsPerPod)
	n2 := float64(cfg.T2)
	npod := float64(cfg.Pods)
	return n2 * (n0*npod - 1) / (n0 * (npod - 1))
}

// Alpha returns eq. (8):
//
//	α = n0(4n0−k)(npod−1) / (n2(n0·npod−1) − n0(npod−1)k)
//
// the required ratio between bad- and good-link retransmission
// probabilities. It returns +Inf when k reaches MaxBadLinks (the
// denominator's zero) or the topology has a single pod.
func Alpha(cfg topology.Config, k int) float64 {
	n0 := float64(cfg.ToRsPerPod)
	n2 := float64(cfg.T2)
	npod := float64(cfg.Pods)
	kf := float64(k)
	den := n2*(n0*npod-1) - n0*(npod-1)*kf
	if den <= 0 || cfg.Pods <= 1 {
		return math.Inf(1)
	}
	return n0 * (4*n0 - kf) * (npod - 1) / den
}

// RetxProb returns r = 1 − (1−p)^c, the probability that a link with drop
// rate p causes at least one retransmission in a c-packet connection.
func RetxProb(p float64, c int) float64 {
	if p <= 0 || c <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(c))
}

// PgBound returns eq. (7): the largest good-link drop rate pg under which
// Theorem 2 still separates k bad links dropping at rate pb, for
// connections of cl to cu packets:
//
//	pg ≤ (1 − (1−pb)^cl) / (α·cu)
func PgBound(cfg topology.Config, k int, pb float64, cl, cu int) float64 {
	a := Alpha(cfg, k)
	if math.IsInf(a, 1) || cu <= 0 {
		return 0
	}
	return RetxProb(pb, cl) / (a * float64(cu))
}

// Conditions reports whether Theorem 3's structural preconditions hold for
// the topology and failure count: n0 ≥ n2, k below MaxBadLinks, and
// npod ≥ 1 + max[n0/n1, n2(n0−1)/(n0(n0−n2)), 1].
func Conditions(cfg topology.Config, k int) (ok bool, violations []string) {
	n0 := float64(cfg.ToRsPerPod)
	n1 := float64(cfg.T1PerPod)
	n2 := float64(cfg.T2)
	npod := float64(cfg.Pods)
	if n0 < n2 {
		violations = append(violations, "n0 < n2")
	}
	if float64(k) >= MaxBadLinks(cfg) {
		violations = append(violations, "k >= n2(n0·npod-1)/(n0(npod-1))")
	}
	need := 1.0
	if n0/n1 > need {
		need = n0 / n1
	}
	if n0 > n2 { // avoid the n0==n2 division by zero; that case already failed above
		if v := n2 * (n0 - 1) / (n0 * (n0 - n2)); v > need {
			need = v
		}
	}
	if npod < 1+need {
		violations = append(violations, "npod < 1 + max[n0/n1, n2(n0-1)/(n0(n0-n2)), 1]")
	}
	return len(violations) == 0, violations
}

// VoteProbBounds returns eq. (10): a lower bound on a bad link's
// per-connection vote probability and an upper bound on a good link's,
// given the retransmission probabilities rb and rg and failure count k.
func VoteProbBounds(cfg topology.Config, rb, rg float64, k int) (vbLo, vgHi float64) {
	n0 := float64(cfg.ToRsPerPod)
	n1 := float64(cfg.T1PerPod)
	n2 := float64(cfg.T2)
	npod := float64(cfg.Pods)
	kf := float64(k)
	vbLo = rb / (n0 * n1 * npod)
	if cfg.Pods > 1 {
		vgHi = n0 * (npod - 1) / (n0*npod - 1) / (n1 * n2 * npod) *
			((4-kf/n0)*rg + kf/n0*rb)
	} else {
		// Single pod: every path is host-ToR-T1-ToR-host; a good link sees
		// spill from at most 4 co-path links, one of which may be bad.
		vgHi = (4*rg + rb) / (n0 * n1)
	}
	return vbLo, vgHi
}

// EpsilonBound returns eq. (9): the probability that 007 misranks any good
// link above a bad one after N connections,
//
//	ε ≤ e^(−N·D((1+δ)vg ‖ vg)) + e^(−N·D((1−δ)vb ‖ vb)),
//
// minimized over the valid δ range when delta <= 0 is passed.
func EpsilonBound(n int, vg, vb, delta float64) float64 {
	if vb <= vg || n <= 0 {
		return 1
	}
	if delta <= 0 {
		// Optimize δ over (0, (vb−vg)/(vb+vg)] by golden-section search.
		lo, hi := 1e-9, (vb-vg)/(vb+vg)
		best := 1.0
		for i := 0; i < 64; i++ {
			m1 := lo + (hi-lo)/3
			m2 := hi - (hi-lo)/3
			e1, e2 := epsilonAt(n, vg, vb, m1), epsilonAt(n, vg, vb, m2)
			if e1 < e2 {
				hi = m2
			} else {
				lo = m1
			}
			if e1 < best {
				best = e1
			}
			if e2 < best {
				best = e2
			}
		}
		return best
	}
	return epsilonAt(n, vg, vb, delta)
}

func epsilonAt(n int, vg, vb, delta float64) float64 {
	up := (1 + delta) * vg
	dn := (1 - delta) * vb
	if up >= 1 || dn <= 0 || up >= dn {
		return 1
	}
	e := math.Exp(-float64(n)*stats.BernoulliKL(up, vg)) +
		math.Exp(-float64(n)*stats.BernoulliKL(dn, vb))
	if e > 1 {
		return 1
	}
	return e
}
