package agent

import (
	"testing"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/fabric"
	"vigil/internal/slb"
	"vigil/internal/stats"
	"vigil/internal/theory"
	"vigil/internal/topology"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

// rig is one host's agent on the test cluster, configured the way the
// cluster configures it, with its probes and reports collected.
type rig struct {
	topo    *topology.Topology
	sched   *des.Scheduler
	slb     *slb.SLB
	agent   *Agent
	sent    [][]byte
	reports []vote.Report
}

// newRig builds host 0's agent; edit, when not nil, adjusts the config
// first.
func newRig(t *testing.T, edit func(*Config)) *rig {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{topo: topo, sched: &des.Scheduler{}, slb: slb.New(topo, stats.NewRNG(1))}
	cfg := Config{
		Topo:       topo,
		Host:       0,
		SLB:        r.slb,
		NewPacket:  func() *wire.Buffer { return wire.NewBuffer(wire.IPv4HeaderLen + wire.TCPHeaderLen) },
		SendPacket: func(pkt *wire.Buffer) { r.sent = append(r.sent, pkt.Bytes()) },
		Sched:      r.sched,
		Ct:         theory.CtBound(topo.Cfg, fabric.Tmax),
		OnReport:   func(rep vote.Report) { r.reports = append(r.reports, rep) },
	}
	if edit != nil {
		edit(&cfg)
	}
	r.agent = New(cfg)
	return r
}

// retransmit and rtt hand the agent one event of flow f, identified, as
// every rig flow is, by its source port.
func (r *rig) retransmit(f ecmp.FiveTuple)            { r.agent.OnRetransmit(f, int64(f.SrcPort)) }
func (r *rig) rtt(f ecmp.FiveTuple, srttMicros int64) { r.agent.OnRTT(f, int64(f.SrcPort), srttMicros) }

// flow is a TCP flow from host 0 to host dst.
func (r *rig) flow(dst topology.HostID, srcPort uint16) ecmp.FiveTuple {
	return ecmp.FiveTuple{
		SrcIP: r.topo.Hosts[0].IP, DstIP: r.topo.Hosts[dst].IP,
		SrcPort: srcPort, DstPort: 443, Proto: ecmp.ProtoTCP,
	}
}

// probe is the packet an agent sends to trace flow at ttl.
func probe(flow ecmp.FiveTuple, ttl uint8) []byte {
	buf := wire.NewBuffer(wire.IPv4HeaderLen + wire.TCPHeaderLen)
	buildProbeInto(buf, flow, ttl)
	return buf.Bytes()
}

// reply hands the agent the ICMP time-exceeded the switch from sends for
// the probe tracing flow at ttl, built the way the fabric echoes it back,
// and reports whether the agent matched it.
func (r *rig) reply(t *testing.T, flow ecmp.FiveTuple, ttl uint8, from topology.SwitchID) bool {
	t.Helper()
	ic := timeExceeded(probe(flow, ttl))
	buf := wire.NewBuffer(64)
	ic.SerializeTo(buf)
	var parsed wire.ICMP
	if err := wire.DecodeICMP(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	return r.agent.HandleICMP(r.topo.Switches[from].IP, &parsed)
}

// The probes must carry the flow's exact five-tuple, the TTL echoed in the
// IP ID, and a bad TCP checksum — §4.2's three crafting requirements.
func TestProbeCrafting(t *testing.T) {
	r := newRig(t, nil)
	flow := r.flow(20, 44444)
	r.retransmit(flow)
	if len(r.sent) != probesPerTTL*maxTTL {
		t.Fatalf("sent %d probes, want %d", len(r.sent), probesPerTTL*maxTTL)
	}
	for i, data := range r.sent {
		var ip wire.IPv4
		seg, err := wire.DecodeIPv4(data, &ip)
		if err != nil {
			t.Fatal(err)
		}
		if ttl := i/probesPerTTL + 1; int(ip.TTL) != ttl || int(ip.ID) != ttl {
			t.Fatalf("probe %d: TTL=%d ID=%d", i, ip.TTL, ip.ID)
		}
		if ip.Src != flow.SrcIP || ip.Dst != flow.DstIP {
			t.Fatal("probe addresses differ from the flow")
		}
		var tcp wire.TCP
		if _, err := wire.DecodeTCP(seg, &tcp); err != nil {
			t.Fatal(err)
		}
		if tcp.SrcPort != flow.SrcPort || tcp.DstPort != flow.DstPort {
			t.Fatal("probe ports differ from the flow")
		}
		if wire.VerifyTCPChecksum(seg, ip.Src, ip.Dst) {
			t.Fatal("probe checksum is valid; it must be deliberately bad")
		}
	}
}

// Every hop gets two probes, the redundancy that rides out a lost reply.
func TestProbesPerTTLDefault(t *testing.T) {
	r := newRig(t, nil)
	r.retransmit(r.flow(10, 1))
	if len(r.sent) != 2*maxTTL {
		t.Fatalf("redundancy sent %d probes, want %d", len(r.sent), 2*maxTTL)
	}
}

// A flow is traced once per epoch however often it retransmits, other
// flows trigger on their own, and the report counts every retransmission
// of the epoch.
func TestTriggerOncePerFlowPerEpoch(t *testing.T) {
	r := newRig(t, nil)
	f1, f2 := r.flow(10, 1000), r.flow(10, 1001)
	for range 5 {
		r.retransmit(f1)
	}
	if r.agent.Traces != 1 {
		t.Fatalf("traced %d times for one flow in one epoch", r.agent.Traces)
	}
	r.retransmit(f2)
	if r.agent.Traces != 2 {
		t.Fatalf("traces = %d, want 2: the second flow did not trigger", r.agent.Traces)
	}
	r.sched.Drain(10) // fire the probe timeouts
	if len(r.reports) != 2 {
		t.Fatalf("%d reports, want 2", len(r.reports))
	}
	for i, want := range []struct {
		id   int64
		retx int
	}{{1000, 5}, {1001, 1}} {
		if got := r.reports[i]; got.FlowID != want.id || got.Retx != want.retx || got.Src != 0 || got.Dst != 10 {
			t.Fatalf("report %d = %+v, want flow %d with %d retransmissions from host 0 to 10", i, got, want.id, want.retx)
		}
	}
}

// A second trigger in the same epoch sends no probes; after the epoch
// roll the flow is probed again.
func TestOncePerFlowPerEpoch(t *testing.T) {
	r := newRig(t, nil)
	f := r.flow(10, 1)
	r.retransmit(f)
	r.retransmit(f) // same epoch: suppressed
	if len(r.sent) != probesPerTTL*maxTTL {
		t.Fatalf("re-discovery in the same epoch sent probes: %d", len(r.sent))
	}
	r.agent.NewEpoch()
	r.retransmit(f)
	if len(r.sent) != 2*probesPerTTL*maxTTL {
		t.Fatalf("discovery after epoch roll did not probe: %d", len(r.sent))
	}
}

// The epoch roll resets the retransmission count and lets the flow trigger
// again.
func TestNewEpochReopensTrigger(t *testing.T) {
	r := newRig(t, nil)
	f := r.flow(10, 2000)
	r.retransmit(f)
	r.retransmit(f)
	r.sched.Drain(10)
	r.agent.NewEpoch()
	r.retransmit(f)
	r.sched.Drain(10)
	if r.agent.Traces != 2 || len(r.reports) != 2 {
		t.Fatalf("%d traces and %d reports across two epochs, want 2 and 2", r.agent.Traces, len(r.reports))
	}
	if r.reports[0].Retx != 2 || r.reports[1].Retx != 1 {
		t.Fatalf("retransmissions reported %d then %d, want 2 then 1", r.reports[0].Retx, r.reports[1].Retx)
	}
}

// A trace that times out removes only its own pending entry: a second
// trace of the tuple, started after an epoch roll while the first still
// waited, keeps matching its replies after the first one's timeout.
func TestFinishKeepsLaterTracesEntry(t *testing.T) {
	r := newRig(t, nil)
	f := r.flow(10, 3000)
	r.retransmit(f)
	r.sched.RunUntil(10 * des.Millisecond)
	r.agent.NewEpoch()
	r.retransmit(f)
	r.sched.RunUntil(25 * des.Millisecond) // the first trace's timeout fires at 20 ms
	if len(r.reports) != 1 {
		t.Fatalf("%d reports by 25 ms, want the first trace's", len(r.reports))
	}
	if !r.reply(t, f, 1, r.topo.Hosts[0].ToR) {
		t.Fatal("the second trace's TTL-1 reply went unmatched after the first trace finished")
	}
	r.sched.Drain(10)
	if len(r.reports) != 2 || len(r.reports[1].Path) != 1 || r.reports[1].Path[0] != r.topo.Hosts[0].Uplink {
		t.Fatalf("reports %+v, want the second to hold the first hop", r.reports)
	}
}

// The §9.2 latency extension: RTT samples at or over the threshold trigger
// path discovery (once per flow per epoch) and samples under it do nothing.
func TestRTTThresholdTriggering(t *testing.T) {
	r := newRig(t, func(c *Config) { c.RTTThresholdMicros = 1000 })
	f := r.flow(10, 3000)
	r.rtt(f, 999)
	if r.agent.Traces != 0 {
		t.Fatal("sub-threshold RTT triggered discovery")
	}
	r.rtt(f, 1000)
	if r.agent.Traces != 1 {
		t.Fatal("an RTT at the threshold did not trigger discovery")
	}
	r.rtt(f, 2000)
	if r.agent.Traces != 1 {
		t.Fatalf("triggered %d times for one slow flow in one epoch", r.agent.Traces)
	}
	r.agent.NewEpoch()
	r.rtt(f, 1500)
	if r.agent.Traces != 2 {
		t.Fatal("slow flow did not re-trigger after the epoch roll")
	}
}

// With no RTT threshold set, only retransmissions trigger: an RTT sample,
// however slow, neither traces nor probes.
func TestIgnoresNonRetransmitEvents(t *testing.T) {
	r := newRig(t, nil)
	r.rtt(r.flow(10, 1), 1<<40)
	if r.agent.Traces != 0 || len(r.sent) != 0 {
		t.Fatalf("RTT with no threshold set traced %d times and sent %d probes", r.agent.Traces, len(r.sent))
	}
}

// A flow traced for its RTT alone has no retransmission count of its own;
// its report still carries one retransmission, the least a vote may weigh.
func TestRetxUnknownFlow(t *testing.T) {
	r := newRig(t, func(c *Config) { c.RTTThresholdMicros = 1000 })
	r.rtt(r.flow(10, 9999), 1500)
	r.sched.Drain(10)
	if len(r.reports) != 1 || r.reports[0].Retx != 1 || r.reports[0].FlowID != 9999 {
		t.Fatalf("reports = %+v, want one for flow 9999 with Retx 1", r.reports)
	}
}

// A retransmission and a slow-RTT sample on the same flow in the same
// epoch share the one trigger — path discovery runs once, whichever comes
// first, and the report still counts the retransmission.
func TestRetxAndRTTShareTriggerBudget(t *testing.T) {
	r := newRig(t, func(c *Config) { c.RTTThresholdMicros = 1000 })
	f, g := r.flow(10, 3001), r.flow(10, 3002)
	r.retransmit(f)
	r.rtt(f, 5000)
	r.rtt(g, 5000)
	r.retransmit(g)
	r.retransmit(g)
	if r.agent.Traces != 2 {
		t.Fatalf("traced %d times, want 2", r.agent.Traces)
	}
	r.sched.Drain(10)
	if len(r.reports) != 2 || r.reports[0].Retx != 1 || r.reports[1].Retx != 2 {
		t.Fatalf("reports = %+v, want Retx 1 for %v and 2 for %v", r.reports, f, g)
	}
}

func TestCtRateLimit(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Ct = 2 })
	for i := range 10 {
		r.retransmit(r.flow(10, uint16(i+1)))
	}
	if r.agent.Traces != 2 || r.agent.RateLimited != 8 {
		t.Fatalf("traces=%d limited=%d, want 2/8", r.agent.Traces, r.agent.RateLimited)
	}
	// A rate-limited flow used up its trigger for the epoch.
	r.retransmit(r.flow(10, 3))
	if r.agent.RateLimited != 8 {
		t.Fatalf("a rate-limited flow retried in the same epoch: limited=%d", r.agent.RateLimited)
	}
	// Tokens refill with virtual time (drain past the pending probe
	// timeouts up to the 2-second mark).
	r.sched.At(2*des.Second, func() {})
	r.sched.Drain(100)
	r.retransmit(r.flow(10, 99))
	if r.agent.Traces != 3 {
		t.Fatalf("budget did not refill: traces=%d", r.agent.Traces)
	}
}

// A VIP-bound flow is probed toward the DIP the SLB assigned it; one the
// SLB cannot resolve is never traced, and its trigger is spent.
func TestVIPResolvedThroughSLB(t *testing.T) {
	r := newRig(t, nil)
	vip := slb.VIP(1)
	if err := r.slb.RegisterVIP(vip, []topology.HostID{20, 30}); err != nil {
		t.Fatal(err)
	}
	dip, err := r.slb.Connect(0, 5000, vip, 443)
	if err != nil {
		t.Fatal(err)
	}
	bound := r.flow(0, 5000)
	bound.DstIP = vip
	r.retransmit(bound)
	var ip wire.IPv4
	if _, err := wire.DecodeIPv4(r.sent[0], &ip); err != nil {
		t.Fatal(err)
	}
	if ip.Dst != r.topo.Hosts[dip].IP {
		t.Fatalf("probed %s, want the DIP %s", topology.FormatIP(ip.Dst), topology.FormatIP(r.topo.Hosts[dip].IP))
	}

	unknown := bound
	unknown.SrcPort = 5001
	r.retransmit(unknown)
	r.retransmit(unknown)
	if r.agent.SLBFailures != 1 || r.agent.Traces != 1 || len(r.sent) != probesPerTTL*maxTTL {
		t.Fatalf("SLB failures %d, traces %d, %d probes; want 1, 1, %d", r.agent.SLBFailures, r.agent.Traces, len(r.sent), probesPerTTL*maxTTL)
	}
	r.sched.Drain(10)
	if len(r.reports) != 1 || r.reports[0].Dst != dip {
		t.Fatalf("reports = %+v, want one toward host %d", r.reports, dip)
	}
}

// Synthetic ICMP replies must assemble into the right link path.
func TestAssemblyFromReplies(t *testing.T) {
	r := newRig(t, nil)
	dst := topology.HostID(10)
	flow := r.flow(dst, 7)
	r.retransmit(flow)

	tor := r.topo.Hosts[0].ToR
	t1 := topology.SwitchID(r.topo.Links[r.topo.Switches[tor].Uplinks[2]].To.ID)
	dstToR := r.topo.Hosts[dst].ToR
	for ttl, sw := range []topology.SwitchID{tor, t1, dstToR} {
		if !r.reply(t, flow, uint8(ttl+1), sw) {
			t.Fatalf("reply for TTL %d not matched", ttl+1)
		}
	}
	r.sched.Drain(10) // fire the probe timeout

	if len(r.reports) != 1 {
		t.Fatalf("%d reports", len(r.reports))
	}
	rep := r.reports[0]
	if rep.Partial {
		t.Fatalf("complete trace marked partial: %+v", rep)
	}
	want := []topology.LinkID{r.topo.Hosts[0].Uplink}
	l1, _ := r.topo.LinkBetween(topology.SwitchNode(tor), topology.SwitchNode(t1))
	l2, _ := r.topo.LinkBetween(topology.SwitchNode(t1), topology.SwitchNode(dstToR))
	want = append(want, l1, l2, r.topo.Hosts[dst].Downlink)
	if len(rep.Path) != len(want) {
		t.Fatalf("path = %v, want %v", rep.Path, want)
	}
	for i := range want {
		if rep.Path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, rep.Path[i], want[i])
		}
	}
	if r.agent.PartialPaths != 0 {
		t.Fatalf("PartialPaths = %d", r.agent.PartialPaths)
	}
}

// A missing middle hop truncates the path to the answering prefix, and
// the report is partial.
func TestPartialOnMissingHop(t *testing.T) {
	r := newRig(t, nil)
	flow := r.flow(10, 8)
	r.retransmit(flow)
	// Only the first hop answers (probes beyond died on a blackhole).
	r.reply(t, flow, 1, r.topo.Hosts[0].ToR)
	r.sched.Drain(10)
	if len(r.reports) != 1 || !r.reports[0].Partial {
		t.Fatalf("expected a partial report, got %+v", r.reports)
	}
	if len(r.reports[0].Path) != 1 || r.reports[0].Path[0] != r.topo.Hosts[0].Uplink {
		t.Fatalf("partial path = %v", r.reports[0].Path)
	}
	if r.agent.PartialPaths != 1 {
		t.Fatalf("PartialPaths = %d", r.agent.PartialPaths)
	}
}

func TestForeignICMPIgnored(t *testing.T) {
	r := newRig(t, nil)
	ic := wire.ICMP{Type: 0} // echo reply
	if r.agent.HandleICMP(1234, &ic) {
		t.Fatal("echo reply matched a traceroute")
	}
	te := timeExceeded([]byte{1, 2, 3})
	if r.agent.HandleICMP(1234, &te) {
		t.Fatal("garbage time-exceeded matched")
	}
	// A well-formed reply for a flow this agent never traced.
	if r.reply(t, r.flow(10, 9), 1, r.topo.Hosts[0].ToR) {
		t.Fatal("reply for an untraced flow matched")
	}
}

// timeExceeded is the ICMP reply a switch sends for an expired packet: its
// IP header and first 8 payload bytes come back as the body.
func timeExceeded(expired []byte) wire.ICMP {
	body := expired[:min(len(expired), wire.IPv4HeaderLen+8)]
	return wire.ICMP{Type: wire.ICMPTypeTimeExceeded, Code: wire.ICMPCodeTTLExpired, Body: body}
}
