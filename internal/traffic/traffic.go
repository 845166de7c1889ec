// Package traffic generates the workloads of the paper's evaluation:
// uniform random traffic (the §6 default), ToR-skewed traffic (80% of flows
// to 25% of ToRs, Fig. 8) and hot-ToR sink traffic (Fig. 9).
package traffic

import (
	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

// Flow is one TCP connection for an epoch: endpoints, the five-tuple that
// determines its ECMP path, and how many packets it sends.
type Flow struct {
	Src, Dst topology.HostID
	Tuple    ecmp.FiveTuple
	Packets  int
}

// IntRange is an inclusive integer range; Lo == Hi makes it a constant.
type IntRange struct{ Lo, Hi int }

// Sample draws from the range.
func (r IntRange) Sample(rng *stats.RNG) int {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return rng.IntRange(r.Lo, r.Hi)
}

// Pattern chooses a destination host for a given source. Implementations
// must never return a host under the source's own ToR (the paper's traffic
// model: hosts talk to hosts "under a different ToR").
type Pattern interface {
	Pick(rng *stats.RNG, topo *topology.Topology, src topology.HostID) topology.HostID
}

// Uniform is the paper's default model: destination ToR uniform among all
// other ToRs, destination host uniform under it.
type Uniform struct{}

// Pick implements Pattern.
func (Uniform) Pick(rng *stats.RNG, topo *topology.Topology, src topology.HostID) topology.HostID {
	return pickUnderOtherToR(rng, topo, src, nil)
}

func pickUnderOtherToR(rng *stats.RNG, topo *topology.Topology, src topology.HostID, tors []topology.SwitchID) topology.HostID {
	srcToR := topo.Hosts[src].ToR
	for {
		var tor topology.SwitchID
		if tors == nil {
			p := rng.Intn(topo.Cfg.Pods)
			tor = topo.ToR(p, rng.Intn(topo.Cfg.ToRsPerPod))
		} else {
			tor = tors[rng.Intn(len(tors))]
		}
		if tor == srcToR {
			continue
		}
		return hostUnderToR(rng, topo, tor)
	}
}

// hostUnderToR picks a uniform host below ToR tor without materializing the
// host list: hosts under a ToR are a contiguous ID range, so the draw
// reduces to arithmetic. This keeps the per-flow generation path
// allocation-free.
func hostUnderToR(rng *stats.RNG, topo *topology.Topology, tor topology.SwitchID) topology.HostID {
	sw := &topo.Switches[tor]
	if sw.Tier != topology.TierToR {
		panic("traffic: destination switch is not a ToR")
	}
	return topo.HostAt(sw.Pod, sw.Index, rng.Intn(topo.Cfg.HostsPerToR))
}

// SkewedToRs sends Frac of the flows to hosts under the Hot ToR set and the
// rest uniformly (Fig. 8: Frac=0.8 to 25% of the ToRs).
type SkewedToRs struct {
	Hot  []topology.SwitchID
	Frac float64
}

// Pick implements Pattern.
func (s SkewedToRs) Pick(rng *stats.RNG, topo *topology.Topology, src topology.HostID) topology.HostID {
	if len(s.Hot) > 0 && rng.Bool(s.Frac) {
		// Retry elsewhere when the source sits in the hot set's only rack.
		if len(s.Hot) > 1 || s.Hot[0] != topo.Hosts[src].ToR {
			return pickUnderOtherToR(rng, topo, src, s.Hot)
		}
	}
	return pickUnderOtherToR(rng, topo, src, nil)
}

// RandomToRs picks n distinct ToRs for use as a hot set.
func RandomToRs(rng *stats.RNG, topo *topology.Topology, n int) []topology.SwitchID {
	total := topo.Cfg.Pods * topo.Cfg.ToRsPerPod
	if n > total {
		n = total
	}
	perm := rng.Perm(total)
	out := make([]topology.SwitchID, n)
	for i := 0; i < n; i++ {
		p := perm[i] / topo.Cfg.ToRsPerPod
		out[i] = topo.ToR(p, perm[i]%topo.Cfg.ToRsPerPod)
	}
	return out
}

// HotToR sends Frac of all flows into a single sink ToR (Fig. 9).
type HotToR struct {
	Sink topology.SwitchID
	Frac float64
}

// Pick implements Pattern.
func (h HotToR) Pick(rng *stats.RNG, topo *topology.Topology, src topology.HostID) topology.HostID {
	if rng.Bool(h.Frac) && topo.Hosts[src].ToR != h.Sink {
		return hostUnderToR(rng, topo, h.Sink)
	}
	return pickUnderOtherToR(rng, topo, src, nil)
}

// Workload describes one epoch of traffic.
type Workload struct {
	Pattern        Pattern
	ConnsPerHost   IntRange // paper default: 60 per 30 s epoch (2/s)
	PacketsPerFlow IntRange // paper default: "up to 100 packets per flow"
	// Public API: Hosts restricts sources to a subset (the §7 cluster
	// controls 40 of the hosts); nil means every host originates traffic.
	Hosts []topology.HostID
}

// WithDefaults returns w with each zero field taken from def: a nil
// Pattern or Hosts, a {0, 0} ConnsPerHost or PacketsPerFlow. A workload
// that sets some fields keeps them.
func (w Workload) WithDefaults(def Workload) Workload {
	if w.Pattern == nil {
		w.Pattern = def.Pattern
	}
	if w.ConnsPerHost == (IntRange{}) {
		w.ConnsPerHost = def.ConnsPerHost
	}
	if w.PacketsPerFlow == (IntRange{}) {
		w.PacketsPerFlow = def.PacketsPerFlow
	}
	if w.Hosts == nil {
		w.Hosts = def.Hosts
	}
	return w
}

// DefaultWorkload is the §6 simulation default.
func DefaultWorkload() Workload {
	return Workload{
		Pattern:        Uniform{},
		ConnsPerHost:   IntRange{60, 60},
		PacketsPerFlow: IntRange{100, 100},
	}
}

// GenerateInto appends the epoch's flows to buf, drawing every source from
// the one stream rng, and reuses buf's capacity. Five-tuples use ephemeral
// source ports and port 443, mirroring the storage-service traffic the
// paper monitors. Callers that hand back the same buffer every epoch (the
// packet-plane cluster) generate steady-state epochs without allocating.
func (w Workload) GenerateInto(buf []Flow, rng *stats.RNG, topo *topology.Topology) []Flow {
	if w.Hosts != nil {
		for _, src := range w.Hosts {
			buf = w.appendSourceFlows(buf, rng, topo, src)
		}
		return buf
	}
	for i := range topo.Hosts {
		buf = w.appendSourceFlows(buf, rng, topo, topology.HostID(i))
	}
	return buf
}

// appendSourceFlows draws one source's epoch flows from rng. It allocates
// only when flows runs out of capacity, so callers that recycle buffers
// generate steady-state epochs allocation-free.
func (w Workload) appendSourceFlows(flows []Flow, rng *stats.RNG, topo *topology.Topology, src topology.HostID) []Flow {
	n := w.ConnsPerHost.Sample(rng)
	for c := 0; c < n; c++ {
		dst := w.Pattern.Pick(rng, topo, src)
		flows = append(flows, Flow{
			Src: src,
			Dst: dst,
			Tuple: ecmp.FiveTuple{
				SrcIP:   topo.Hosts[src].IP,
				DstIP:   topo.Hosts[dst].IP,
				SrcPort: uint16(rng.IntRange(32768, 65535)),
				DstPort: 443,
				Proto:   ecmp.ProtoTCP,
			},
			Packets: w.PacketsPerFlow.Sample(rng),
		})
	}
	return flows
}

// ConstantConns reports whether every source draws the same flow count, in
// which case per-source flow counts — and so the global flow-index bases of
// a fused generate-and-simulate pipeline — are pure arithmetic, no RNG
// derivation needed.
func (w Workload) ConstantConns() bool { return w.ConnsPerHost.Hi <= w.ConnsPerHost.Lo }

// FlowsOf returns how many flows source index si contributes to the epoch
// seeded by seed: the connection-count draw at the head of the source's
// generation stream. It consumes nothing from any other stream, so callers
// can prefix-sum per-source counts into global flow-index bases before a
// single flow is generated — the counting pass of netem's fused epoch
// pipeline.
func (w Workload) FlowsOf(seed uint64, si int) int {
	if w.ConstantConns() {
		return w.ConnsPerHost.Lo
	}
	var rng stats.RNG
	rng.Derive(seed, uint64(si))
	return w.ConnsPerHost.Sample(&rng)
}

// AppendFlowsOf appends source index si's epoch flows to buf, drawing from
// the stream derived from (seed, si), so the flows of an epoch do not
// depend on the order in which its sources are generated. rng is
// caller-owned scratch, reseeded here; src is the originating host that
// source index si resolves to. len(result)-len(buf) always equals
// FlowsOf(seed, si).
func (w Workload) AppendFlowsOf(buf []Flow, rng *stats.RNG, seed uint64, si int, topo *topology.Topology, src topology.HostID) []Flow {
	rng.Derive(seed, uint64(si))
	return w.appendSourceFlows(buf, rng, topo, src)
}
