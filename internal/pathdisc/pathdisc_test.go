package pathdisc

import (
	"testing"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/topology"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

func testTopo(t *testing.T) *topology.Topology {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// newAgent builds an agent whose probes are appended to *sent (when sent is
// not nil), each in a buffer of its own.
func newAgent(cfg Config, sent *[][]byte) *Agent {
	cfg.NewPacket = func() *wire.Buffer { return wire.NewBuffer(wire.IPv4HeaderLen + wire.TCPHeaderLen) }
	cfg.SendPacket = func(pkt *wire.Buffer) {
		if sent != nil {
			*sent = append(*sent, pkt.Bytes())
		}
	}
	return New(cfg)
}

// probe is the packet an agent sends to trace flow at ttl.
func probe(flow ecmp.FiveTuple, ttl uint8) []byte {
	buf := wire.NewBuffer(wire.IPv4HeaderLen + wire.TCPHeaderLen)
	buildProbeInto(buf, flow, ttl)
	return buf.Bytes()
}

// The probes must carry the flow's exact five-tuple, the TTL echoed in the
// IP ID, and a bad TCP checksum — §4.2's three crafting requirements.
func TestProbeCrafting(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	var sent [][]byte
	a := newAgent(Config{Topo: topo, Host: 0, Sched: sched}, &sent)
	flow := ecmp.FiveTuple{
		SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[20].IP,
		SrcPort: 44444, DstPort: 443, Proto: ecmp.ProtoTCP,
	}
	a.Discover(flow)
	if len(sent) != probesPerTTL*MaxTTL {
		t.Fatalf("sent %d probes, want %d", len(sent), probesPerTTL*MaxTTL)
	}
	for i, data := range sent {
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

func TestProbesPerTTLDefault(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	var sent [][]byte
	a := newAgent(Config{Topo: topo, Host: 0, Sched: sched}, &sent)
	a.Discover(ecmp.FiveTuple{SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[10].IP, SrcPort: 1, DstPort: 2, Proto: 6})
	if len(sent) != 2*MaxTTL {
		t.Fatalf("redundancy sent %d probes, want %d", len(sent), 2*MaxTTL)
	}
}

func TestOncePerFlowPerEpoch(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	var sent [][]byte
	a := newAgent(Config{Topo: topo, Host: 0, Sched: sched}, &sent)
	flow := ecmp.FiveTuple{SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[10].IP, SrcPort: 1, DstPort: 2, Proto: 6}
	a.Discover(flow)
	a.Discover(flow) // same epoch: suppressed
	if len(sent) != probesPerTTL*MaxTTL {
		t.Fatalf("re-discovery in the same epoch sent probes: %d", len(sent))
	}
	a.NewEpoch()
	a.Discover(flow)
	if len(sent) != 2*probesPerTTL*MaxTTL {
		t.Fatalf("discovery after epoch roll did not probe: %d", len(sent))
	}
}

func TestCtRateLimit(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	a := newAgent(Config{Topo: topo, Host: 0, Sched: sched, Ct: 2}, nil)
	for i := 0; i < 10; i++ {
		a.Discover(ecmp.FiveTuple{
			SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[10].IP,
			SrcPort: uint16(i + 1), DstPort: 443, Proto: 6,
		})
	}
	if a.Traces != 2 || a.RateLimited != 8 {
		t.Fatalf("traces=%d limited=%d, want 2/8", a.Traces, a.RateLimited)
	}
	// Tokens refill with virtual time (drain past the pending probe
	// timeouts up to the 2-second mark).
	sched.At(2*des.Second, func() {})
	sched.Drain(100)
	a.Discover(ecmp.FiveTuple{SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[10].IP, SrcPort: 99, DstPort: 443, Proto: 6})
	if a.Traces != 3 {
		t.Fatalf("budget did not refill: traces=%d", a.Traces)
	}
}

// Synthetic ICMP replies must assemble into the right link path, and a
// missing middle hop must truncate to the adjacent prefix.
func TestAssemblyFromReplies(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	var reports []vote.Report
	a := newAgent(Config{
		Topo: topo, Host: 0, Sched: sched,
		OnReport: func(r vote.Report) { reports = append(reports, r) },
	}, nil)
	dst := topology.HostID(10)
	flow := ecmp.FiveTuple{SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 7, DstPort: 443, Proto: 6}
	a.Discover(flow)

	reply := func(ttl uint8, from topology.SwitchID) {
		// Build the expired probe the way the fabric would echo it back.
		ic := timeExceeded(probe(flow, ttl))
		buf := wire.NewBuffer(64)
		ic.SerializeTo(buf)
		var parsed wire.ICMP
		if err := wire.DecodeICMP(buf.Bytes(), &parsed); err != nil {
			t.Fatal(err)
		}
		if !a.HandleICMP(topo.Switches[from].IP, &parsed) {
			t.Fatalf("reply for TTL %d not matched", ttl)
		}
	}
	tor := topo.Hosts[0].ToR
	t1 := topo.T1(0, 2)
	dstToR := topo.Hosts[dst].ToR
	reply(1, tor)
	reply(2, t1)
	reply(3, dstToR)
	sched.Drain(10) // fire the probe timeout

	if len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
	r := reports[0]
	if r.Partial {
		t.Fatalf("complete trace marked partial: %+v", r)
	}
	want := []topology.LinkID{topo.Hosts[0].Uplink}
	l1, _ := topo.LinkBetween(topology.SwitchNode(tor), topology.SwitchNode(t1))
	l2, _ := topo.LinkBetween(topology.SwitchNode(t1), topology.SwitchNode(dstToR))
	want = append(want, l1, l2, topo.Hosts[dst].Downlink)
	if len(r.Path) != len(want) {
		t.Fatalf("path = %v, want %v", r.Path, want)
	}
	for i := range want {
		if r.Path[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v", i, r.Path[i], want[i])
		}
	}
}

func TestPartialOnMissingHop(t *testing.T) {
	topo := testTopo(t)
	sched := &des.Scheduler{}
	var reports []vote.Report
	a := newAgent(Config{
		Topo: topo, Host: 0, Sched: sched,
		OnReport: func(r vote.Report) { reports = append(reports, r) },
	}, nil)
	dst := topology.HostID(10)
	flow := ecmp.FiveTuple{SrcIP: topo.Hosts[0].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 8, DstPort: 443, Proto: 6}
	a.Discover(flow)
	// Only the first hop answers (probes beyond died on a blackhole).
	ic := timeExceeded(probe(flow, 1))
	buf := wire.NewBuffer(64)
	ic.SerializeTo(buf)
	var parsed wire.ICMP
	if err := wire.DecodeICMP(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	a.HandleICMP(topo.Switches[topo.Hosts[0].ToR].IP, &parsed)
	sched.Drain(10)
	if len(reports) != 1 || !reports[0].Partial {
		t.Fatalf("expected a partial report, got %+v", reports)
	}
	if len(reports[0].Path) != 1 || reports[0].Path[0] != topo.Hosts[0].Uplink {
		t.Fatalf("partial path = %v", reports[0].Path)
	}
	if a.PartialPaths != 1 {
		t.Fatalf("PartialPaths = %d", a.PartialPaths)
	}
}

func TestForeignICMPIgnored(t *testing.T) {
	topo := testTopo(t)
	a := newAgent(Config{Topo: topo, Host: 0, Sched: &des.Scheduler{}}, nil)
	ic := wire.ICMP{Type: 0} // echo reply
	if a.HandleICMP(1234, &ic) {
		t.Fatal("echo reply matched a traceroute")
	}
	te := timeExceeded([]byte{1, 2, 3})
	if a.HandleICMP(1234, &te) {
		t.Fatal("garbage time-exceeded matched")
	}
}

// timeExceeded is the ICMP reply a switch sends for an expired packet: its
// IP header and first 8 payload bytes come back as the body.
func timeExceeded(expired []byte) wire.ICMP {
	body := expired[:min(len(expired), wire.IPv4HeaderLen+8)]
	return wire.ICMP{Type: wire.ICMPTypeTimeExceeded, Code: wire.ICMPCodeTTLExpired, Body: body}
}
