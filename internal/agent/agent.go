// Package agent is 007's host agent (§3–§4). Its TCP monitoring half
// counts each flow's retransmissions in the current epoch — the host
// stack calls OnRetransmit, as ETW or an eBPF program on the
// tcp_retransmit_skb tracepoint would notify it — and triggers path
// discovery at most once per flow per epoch, the first line of defence
// for the traceroute budget.
//
// Its path discovery half resolves the flow's DIP through the SLB, then
// emits 15 crafted TCP probes with TTLs 1-15 that carry the flow's exact
// five-tuple (so ECMP hashes them onto the data path), the TTL echoed in
// the IP ID field (so concurrent traceroutes disambiguate), and a
// deliberately bad TCP checksum (so the destination stack ignores them).
// ICMP time-exceeded replies are matched back to probes and assembled
// into a link-level path; partial traceroutes — the probe itself died on
// the faulty link — are reported as such and still vote on their prefix.
//
// Two rate limits protect the switch control planes (§4.1): the per-host
// Ct bound from Theorem 1 enforced here, and the per-switch Tmax token
// bucket enforced by the fabric.
//
// On the hot path the agent is allocation-free apart from the report it
// emits: probes serialize into pooled packet buffers (Config.NewPacket /
// SendPacket), trace state is recycled through a free list, and the probe
// timeout is a typed DES event.
package agent

import (
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/slb"
	"vigil/internal/topology"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

// maxTTL is the deepest hop probed; a Clos host path has at most 5
// switches, the paper sends 15 probes to be safe.
const maxTTL = 15

// probesPerTTL is how many probes go out per hop, like classical
// traceroute's retries: the probe tracing a lossy link is itself exposed to
// that link's drop rate, and a lost critical probe truncates the path.
// Duplicate replies are idempotent.
const probesPerTTL = 2

// probeTimeout is how long a trace waits for ICMP replies before its path
// is assembled (datacenter RTTs are well under 2ms).
const probeTimeout = 20 * des.Millisecond

// evFinish is the agent's typed DES event: a trace's probe timeout
// expiring (payload = the trace).
const evFinish int32 = 1

// Config assembles an agent for one host.
type Config struct {
	Topo *topology.Topology
	Host topology.HostID
	// SLB resolves VIP flows to DIPs; flows addressed to a DIP directly
	// (infrastructure traffic) pass through unresolved.
	SLB *slb.SLB
	// NewPacket and SendPacket inject probes onto the host's uplink:
	// probes build into pooled wire buffers and SendPacket takes ownership
	// of each.
	NewPacket  func() *wire.Buffer
	SendPacket func(pkt *wire.Buffer)
	// Sched provides virtual time for probe timeouts and rate limiting.
	Sched *des.Scheduler
	// EventKey is the origin key the agent's timer events carry (see
	// des.Scheduler.PostKeyed); the embedding layer derives it from the
	// host identity so simultaneous timeouts on different hosts order
	// deterministically.
	EventKey uint64
	// Ct is the host traceroute budget in traceroutes/second (Theorem 1),
	// also the token bucket's depth; it must be positive.
	Ct float64
	// RTTThresholdMicros, when positive, extends 007 to latency diagnosis
	// (§9.2): a flow whose smoothed RTT crosses the threshold is treated
	// as failed and triggers path discovery, so the voting scheme ranks
	// the links responsible for the delay.
	RTTThresholdMicros int64
	// OnReport receives the finished path report.
	OnReport func(r vote.Report)
	// FlowID supplies the stable flow identifier a report carries (for
	// scoring against ground truth).
	FlowID func(flow ecmp.FiveTuple) int64
}

// Agent is one host's agent.
type Agent struct {
	cfg Config

	// flows is the per-flow state of the current epoch. Cleared — not
	// reallocated — on epoch roll, so its memory is bounded by the busiest
	// epoch rather than growing with every flow the host ever carried.
	flows map[ecmp.FiveTuple]flowState

	pending map[probeKey]*trace
	// freeTraces recycles trace state across discoveries.
	freeTraces []*trace
	// pathScratch is reused to assemble the answering-switch prefix.
	pathScratch [maxTTL + 1]topology.SwitchID

	tokens     float64
	lastRefill des.Time

	// Stats.
	Traces       int64 // traceroutes launched
	RateLimited  int64 // discoveries skipped by the Ct budget
	SLBFailures  int64 // discoveries skipped because the DIP query failed
	PartialPaths int64
}

// flowState is what the agent knows of one flow (as seen by TCP) this
// epoch.
type flowState struct {
	retx int // retransmissions
	// traced is set once the flow has triggered path discovery: "the agent
	// triggers path discovery for a given connection no more than once
	// every epoch" (§4.1), whether or not the budget let a trace out.
	traced bool
}

// probeKey matches an ICMP reply's embedded probe back to its traceroute:
// the probe's destination and ports identify the flow (the source is this
// host).
type probeKey struct {
	dst     uint32
	srcPort uint16
	dstPort uint16
}

type trace struct {
	flow ecmp.FiveTuple // DIP-rewritten tuple actually probed
	orig ecmp.FiveTuple // as seen by TCP (may carry the VIP)
	// flowID is resolved at discovery time, while the triggering flow is
	// certainly still registered — by the probe timeout the epoch may have
	// rolled and recycled the registry.
	flowID int64
	hops   [maxTTL + 1]uint32
	maxID  int
}

// New builds the agent.
func New(cfg Config) *Agent {
	return &Agent{
		cfg:     cfg,
		flows:   make(map[ecmp.FiveTuple]flowState),
		pending: make(map[probeKey]*trace),
		tokens:  cfg.Ct, // start with one second of budget
	}
}

// NewEpoch rolls the epoch: retransmission counts reset and every flow may
// trigger one more path discovery.
func (a *Agent) NewEpoch() {
	clear(a.flows)
}

// OnRetransmit counts one retransmission of flow (as seen by TCP, possibly
// VIP-bound) and traces its path if the flow has not been traced this
// epoch.
func (a *Agent) OnRetransmit(flow ecmp.FiveTuple) {
	st := a.flows[flow]
	st.retx++
	traced := st.traced
	st.traced = true
	a.flows[flow] = st
	if !traced {
		a.discover(flow)
	}
}

// OnRTT takes a smoothed RTT sample of flow: one at or over
// RTTThresholdMicros traces the flow's path if it has not been traced this
// epoch, sharing the trigger with OnRetransmit.
func (a *Agent) OnRTT(flow ecmp.FiveTuple, srttMicros int64) {
	if a.cfg.RTTThresholdMicros <= 0 || srttMicros < a.cfg.RTTThresholdMicros {
		return
	}
	st := a.flows[flow]
	if st.traced {
		return
	}
	st.traced = true
	a.flows[flow] = st
	a.discover(flow)
}

// discover traces the path of flow. It silently skips when the Ct budget
// is exhausted or the SLB query fails.
func (a *Agent) discover(flow ecmp.FiveTuple) {
	if !a.allow() {
		a.RateLimited++
		return
	}
	probed := flow
	if a.cfg.SLB.IsVIP(flow.DstIP) {
		dip, ok := a.cfg.SLB.QuerySLB(slb.FlowKey{
			SrcIP: flow.SrcIP, SrcPort: flow.SrcPort,
			VIP: flow.DstIP, VIPPort: flow.DstPort,
		})
		if !ok {
			a.SLBFailures++
			return // never traceroute toward an unresolved VIP (§4.2)
		}
		probed.DstIP = a.cfg.Topo.Hosts[dip].IP
	}
	a.Traces++
	tr := a.getTrace()
	tr.flow = probed
	tr.orig = flow
	tr.flowID = a.cfg.FlowID(flow)
	a.pending[probeKey{dst: probed.DstIP, srcPort: probed.SrcPort, dstPort: probed.DstPort}] = tr
	for ttl := 1; ttl <= maxTTL; ttl++ {
		for range probesPerTTL {
			pkt := a.cfg.NewPacket()
			buildProbeInto(pkt, probed, uint8(ttl))
			a.cfg.SendPacket(pkt)
		}
	}
	a.cfg.Sched.PostKeyedAfter(probeTimeout, a.cfg.EventKey, a, evFinish, 0, tr)
}

// getTrace produces zeroed trace state, recycling finished traces.
func (a *Agent) getTrace() *trace {
	if n := len(a.freeTraces); n > 0 {
		tr := a.freeTraces[n-1]
		a.freeTraces[n-1] = nil
		a.freeTraces = a.freeTraces[:n-1]
		*tr = trace{}
		return tr
	}
	return &trace{}
}

// HandleEvent fires a trace's probe timeout (the agent's typed DES event).
func (a *Agent) HandleEvent(kind int32, _ int64, p any) {
	_ = kind // evFinish is the only kind the agent schedules
	a.finish(p.(*trace))
}

// buildProbeInto crafts one traceroute packet into buf: the flow's
// five-tuple, the TTL echoed in the IP ID, and a bad TCP checksum.
func buildProbeInto(buf *wire.Buffer, flow ecmp.FiveTuple, ttl uint8) {
	tcp := wire.TCP{
		SrcPort: flow.SrcPort, DstPort: flow.DstPort,
		Flags: wire.FlagACK, Window: 1, BadChecksum: true,
	}
	ip := wire.IPv4{
		ID: uint16(ttl), TTL: ttl, Protocol: wire.ProtoTCP,
		Src: flow.SrcIP, Dst: flow.DstIP,
	}
	tcp.SerializeTo(buf, &ip)
	ip.SerializeTo(buf)
}

// HandleICMP feeds the agent an ICMP message received by the host. It
// returns true when the message matched one of this agent's traceroutes.
func (a *Agent) HandleICMP(from uint32, ic *wire.ICMP) bool {
	if ic.Type != wire.ICMPTypeTimeExceeded {
		return false
	}
	emb, srcPort, dstPort, hasPorts, err := wire.ExpiredProbe(ic.Body)
	if err != nil || !hasPorts {
		return false
	}
	tr, ok := a.pending[probeKey{dst: emb.Dst, srcPort: srcPort, dstPort: dstPort}]
	if !ok {
		return false
	}
	ttl := int(emb.ID) // the encoded probe TTL
	if ttl < 1 || ttl > maxTTL {
		return false
	}
	tr.hops[ttl] = from
	if ttl > tr.maxID {
		tr.maxID = ttl
	}
	return true
}

// finish assembles the trace into a vote.Report and recycles the trace.
// The report carries the flow's retransmissions so far this epoch — at
// least one.
func (a *Agent) finish(tr *trace) {
	delete(a.pending, probeKey{dst: tr.flow.DstIP, srcPort: tr.flow.SrcPort, dstPort: tr.flow.DstPort})
	topo := a.cfg.Topo
	r := vote.Report{
		FlowID: tr.flowID,
		Src:    a.cfg.Host,
		Retx:   max(a.flows[tr.orig].retx, 1),
	}

	// Contiguous prefix of answering hops.
	switches := a.pathScratch[:0]
	for ttl := 1; ttl <= tr.maxID; ttl++ {
		node, ok := topo.LookupIP(tr.hops[ttl])
		if !ok || node.Kind != topology.NodeSwitch {
			break
		}
		switches = append(switches, topology.SwitchID(node.ID))
	}
	prev := topology.HostNode(a.cfg.Host)
	adjacent := true
	for _, sw := range switches {
		l, ok := topo.LinkBetween(prev, topology.SwitchNode(sw))
		if !ok {
			adjacent = false
			break // non-adjacent hop: path changed mid-trace, keep prefix
		}
		r.Path = append(r.Path, l)
		prev = topology.SwitchNode(sw)
	}
	// The trace is complete when the answering switches form an adjacent
	// chain ending at the destination's ToR; the final host downlink is
	// then known without probing it.
	complete := false
	if dstNode, ok := topo.LookupIP(tr.flow.DstIP); ok && dstNode.Kind == topology.NodeHost {
		dst := topology.HostID(dstNode.ID)
		r.Dst = dst
		if adjacent && len(switches) > 0 && switches[len(switches)-1] == topo.Hosts[dst].ToR {
			if l, ok := topo.LinkBetween(prev, topology.HostNode(dst)); ok {
				r.Path = append(r.Path, l)
				complete = true
			}
		}
	}
	if !complete {
		// Did not reach the destination rack: partial traceroute. The
		// analysis engine still uses the prefix (§4.2).
		r.Partial = true
		a.PartialPaths++
	}
	a.freeTraces = append(a.freeTraces, tr)
	a.cfg.OnReport(r)
}

// allow enforces the Ct traceroute budget.
func (a *Agent) allow() bool {
	now := a.cfg.Sched.Now()
	a.tokens += float64(now-a.lastRefill) / float64(des.Second) * a.cfg.Ct
	a.lastRefill = now
	if burst := a.cfg.Ct; a.tokens > burst {
		a.tokens = burst
	}
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}
