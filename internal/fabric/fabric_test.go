package fabric

import (
	"testing"

	"math"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

type rig struct {
	topo   *topology.Topology
	router *ecmp.Router
	sched  *des.Scheduler
	net    *Net
}

func newRig(t testing.TB, cfg topology.Config, seed uint64) *rig {
	t.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	sched := &des.Scheduler{}
	router := ecmp.NewRouter(topo, ecmp.NewSeeds(topo, rng.Split()))
	net, err := New(Config{Topo: topo, Router: router, Sched: sched, RNG: rng.Split()})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{topo: topo, router: router, sched: sched, net: net}
}

func tcpPacket(srcIP, dstIP uint32, srcPort, dstPort uint16, seq uint32, ttl uint8, id uint16) []byte {
	buf := wire.NewBuffer(64)
	ip := wire.IPv4{ID: id, TTL: ttl, Protocol: wire.ProtoTCP, Src: srcIP, Dst: dstIP}
	tcp := wire.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Flags: wire.FlagPSH | wire.FlagACK}
	tcp.SerializeTo(buf, &ip)
	ip.SerializeTo(buf)
	out := make([]byte, len(buf.Bytes()))
	copy(out, buf.Bytes())
	return out
}

// sendCopy injects a copy of data from host h, keeping the caller's bytes.
func sendCopy(n *Net, h topology.HostID, data []byte) {
	pkt := n.NewPacket()
	pkt.Append(data)
	n.Send(h, pkt)
}

func TestDeliveryAcrossFabric(t *testing.T) {
	r := newRig(t, topology.Config{Pods: 2, ToRsPerPod: 3, T1PerPod: 2, T2: 2, HostsPerToR: 2}, 1)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(1, 2, 1)
	var got []byte
	// Host handlers borrow the pooled packet bytes; retaining needs a copy.
	r.net.OnHostPacket(dst, func(data []byte, _ uint64) { got = append([]byte(nil), data...) })
	pkt := tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, 40000, 443, 7, 64, 0)
	sendCopy(r.net, src, pkt)
	r.sched.Drain(1000)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	var ip wire.IPv4
	seg, err := wire.DecodeIPv4(got, &ip)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod path: 5 switches, so TTL decremented 5 times.
	if ip.TTL != 64-5 {
		t.Fatalf("TTL = %d, want 59", ip.TTL)
	}
	if !wire.VerifyTCPChecksum(seg, ip.Src, ip.Dst) {
		t.Fatal("checksum broken in flight (TTL patch must fix the header checksum)")
	}
	var tcp wire.TCP
	if _, err := wire.DecodeTCP(seg, &tcp); err != nil || tcp.Seq != 7 {
		t.Fatalf("payload corrupted: %v seq=%d", err, tcp.Seq)
	}
}

func TestPacketFollowsECMPPath(t *testing.T) {
	r := newRig(t, topology.DefaultSimConfig, 2)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(1, 5, 3)
	tuple := ecmp.FiveTuple{
		SrcIP: r.topo.Hosts[src].IP, DstIP: r.topo.Hosts[dst].IP,
		SrcPort: 40001, DstPort: 443, Proto: ecmp.ProtoTCP,
	}
	var want ecmp.PathBuf
	if err := r.router.PathInto(src, dst, tuple, &want); err != nil {
		t.Fatal(err)
	}
	var got []topology.LinkID
	r.net.AddTap(func(ev TapEvent) {
		if !ev.Dropped {
			got = append(got, ev.Egress)
		}
	})
	sendCopy(r.net, src, tcpPacket(tuple.SrcIP, tuple.DstIP, tuple.SrcPort, tuple.DstPort, 0, 64, 0))
	r.sched.Drain(1000)
	// Tap sees egress decisions at switches: want's links minus the host uplink.
	if len(got) != len(want.Links())-1 {
		t.Fatalf("observed %d hops, want %d", len(got), len(want.Links())-1)
	}
	for i, l := range got {
		if l != want.Links()[i+1] {
			t.Fatalf("hop %d: fabric took %s, ECMP says %s", i, r.topo.LinkName(l), r.topo.LinkName(want.Links()[i+1]))
		}
	}
}

func TestDropInjection(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 3)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	delivered := 0
	r.net.OnHostPacket(dst, func([]byte, uint64) { delivered++ })
	r.net.SetDropRate(r.topo.Hosts[src].Uplink, 1.0)
	for i := 0; i < 50; i++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, 40002, 443, uint32(i), 64, 0))
	}
	r.sched.Drain(10000)
	if delivered != 0 {
		t.Fatalf("%d packets survived a 100%% drop link", delivered)
	}
	if r.net.LinkDropped[r.topo.Hosts[src].Uplink] != 50 {
		t.Fatalf("drop counter = %d", r.net.LinkDropped[r.topo.Hosts[src].Uplink])
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 4)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	var replies [][]byte
	r.net.OnHostPacket(src, func(data []byte, _ uint64) { replies = append(replies, append([]byte(nil), data...)) })
	// TTL=1 expires at the ToR; TTL=2 at the T1.
	for ttl := uint8(1); ttl <= 2; ttl++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, 40003, 443, 0, ttl, uint16(ttl)))
	}
	r.sched.Drain(10000)
	if len(replies) != 2 {
		t.Fatalf("got %d ICMP replies, want 2", len(replies))
	}
	wantFrom := []uint32{
		r.topo.Switches[r.topo.Hosts[src].ToR].IP,
		0, // any T1; checked by tier below
	}
	for i, data := range replies {
		var ip wire.IPv4
		payload, err := wire.DecodeIPv4(data, &ip)
		if err != nil || ip.Protocol != wire.ProtoICMP {
			t.Fatalf("reply %d not ICMP: %v", i, err)
		}
		var ic wire.ICMP
		if err := wire.DecodeICMP(payload, &ic); err != nil {
			t.Fatal(err)
		}
		if ic.Type != wire.ICMPTypeTimeExceeded {
			t.Fatalf("reply %d type %d", i, ic.Type)
		}
		emb, _, _, hasPorts, err := wire.ExpiredProbe(ic.Body)
		if err != nil || !hasPorts {
			t.Fatalf("reply %d: embedded probe unreadable: %v", i, err)
		}
		if int(emb.ID) != i+1 {
			t.Fatalf("reply %d: embedded IP ID = %d, want %d", i, emb.ID, i+1)
		}
		if i == 0 && ip.Src != wantFrom[0] {
			t.Fatalf("TTL=1 reply from %s, want the ToR", topology.FormatIP(ip.Src))
		}
		if i == 1 {
			node, ok := r.topo.LookupIP(ip.Src)
			if !ok || r.topo.Switches[node.ID].Tier != topology.TierT1 {
				t.Fatalf("TTL=2 reply not from a T1 switch")
			}
		}
	}
}

// The control-plane token bucket must cap ICMP generation at Tmax per
// second per switch — Theorem 1's hard constraint, validated empirically
// in Table 1.
func TestICMPRateLimiting(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 5)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	tor := r.topo.Hosts[src].ToR
	received := 0
	r.net.OnHostPacket(src, func([]byte, uint64) { received++ })
	// Blast 500 TTL=1 probes in one virtual second at one switch.
	for i := 0; i < 500; i++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, uint16(40000+i), 443, 0, 1, 1))
	}
	r.sched.Drain(100000)
	if got := r.net.ICMPSent[tor]; got > 100 {
		t.Fatalf("switch sent %d ICMP in a burst, Tmax is 100", got)
	}
	if r.net.ICMPSuppressed[tor] < 390 {
		t.Fatalf("suppressed = %d, want ~400", r.net.ICMPSuppressed[tor])
	}
	if received > 100 {
		t.Fatalf("host received %d replies", received)
	}
	// The budget refills over time.
	r.sched.RunUntil(r.sched.Now() + 2*des.Second)
	for i := 0; i < 10; i++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, uint16(50000+i), 443, 0, 1, 1))
	}
	r.sched.Drain(10000)
	if got := r.net.ICMPSent[tor]; got < 105 {
		t.Fatalf("bucket did not refill: sent=%d", got)
	}
}

func TestICMPSecondStats(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 6)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	for i := 0; i < 5; i++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, uint16(41000+i), 443, 0, 1, 1))
	}
	r.sched.Drain(1000)
	zero, low, high, max := r.net.ICMPSecondStats(10)
	if max > 5 || max < 1 {
		t.Fatalf("max = %d", max)
	}
	if high != 0 && max <= 3 {
		t.Fatalf("high fraction %v inconsistent with max %d", high, max)
	}
	if zero+low+high < 0.999 || zero+low+high > 1.001 {
		t.Fatalf("fractions don't sum to 1: %v %v %v", zero, low, high)
	}
	if zero >= 1 {
		t.Fatal("zero fraction should be below 1 after ICMP activity")
	}
}

func TestNoICMPAboutICMP(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 7)
	src := r.topo.HostAt(0, 0, 0)
	// Hand-craft an ICMP packet with TTL=1: it must die silently.
	buf := wire.NewBuffer(64)
	ic := wire.ICMP{Type: 0, Body: []byte{1, 2, 3, 4}} // echo reply
	ic.SerializeTo(buf)
	ip := wire.IPv4{TTL: 1, Protocol: wire.ProtoICMP, Src: r.topo.Hosts[src].IP, Dst: r.topo.Hosts[r.topo.HostAt(0, 5, 0)].IP}
	ip.SerializeTo(buf)
	got := 0
	r.net.OnHostPacket(src, func([]byte, uint64) { got++ })
	sendCopy(r.net, src, buf.Bytes())
	r.sched.Drain(1000)
	if got != 0 {
		t.Fatal("received ICMP about ICMP")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fabric config accepted")
	}
}

// The rate setters must validate their inputs: out-of-range links and
// non-probability rates come back as errors, never as silent corruption of
// the drop vector.
func TestRateValidation(t *testing.T) {
	r := newRig(t, topology.Config{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, HostsPerToR: 2}, 5)
	nlinks := len(r.topo.Links)
	for _, l := range []topology.LinkID{-1, topology.LinkID(nlinks)} {
		if err := r.net.SetDropRate(l, 0.1); err == nil {
			t.Fatalf("SetDropRate accepted link %d", l)
		}
		if err := r.net.SetBaseRate(l, 0.1); err == nil {
			t.Fatalf("SetBaseRate accepted link %d", l)
		}
		if err := r.net.ResetDropRate(l); err == nil {
			t.Fatalf("ResetDropRate accepted link %d", l)
		}
	}
	good := topology.LinkID(0)
	for _, rate := range []float64{-0.1, 1.0000001, math.NaN()} {
		if err := r.net.SetDropRate(good, rate); err == nil {
			t.Fatalf("SetDropRate accepted rate %v", rate)
		}
		if err := r.net.SetBaseRate(good, rate); err == nil {
			t.Fatalf("SetBaseRate accepted rate %v", rate)
		}
	}
	if err := r.net.SetDropRate(good, 1); err != nil {
		t.Fatalf("boundary rate 1 rejected: %v", err)
	}
	if err := r.net.SetDropRate(good, 0); err != nil {
		t.Fatalf("boundary rate 0 rejected: %v", err)
	}
}

// Base (noise) rates are what a link returns to: SetDropRate overrides
// them and ResetDropRate restores them.
func TestBaseRateRestore(t *testing.T) {
	r := newRig(t, topology.Config{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, HostsPerToR: 2}, 6)
	l := topology.LinkID(3)
	if err := r.net.SetBaseRate(l, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := r.net.SetDropRate(l, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := r.net.DropRate(l); got != 0.5 {
		t.Fatalf("DropRate = %v after injection", got)
	}
	if err := r.net.ResetDropRate(l); err != nil {
		t.Fatal(err)
	}
	if got := r.net.DropRate(l); got != 1e-6 {
		t.Fatalf("DropRate = %v after reset, want the 1e-6 baseline", got)
	}
}

// The per-(switch, second) ICMP accounting folds finished seconds into the
// distribution as they end — the old map grew one entry per busy
// switch-second for the life of the run, a leak on long scenario timelines
// — and the folded distribution must still match a brute-force tally of
// the same traffic.
func TestICMPAccountingBounded(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 9)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	tor := r.topo.Hosts[src].ToR

	// Drive one expiring probe per virtual second: every (tor, second)
	// bucket holds exactly one message.
	const seconds = 1000
	for sec := 0; sec < seconds; sec++ {
		sendCopy(r.net, src, tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, 40000, 443, 0, 1, 1))
		r.sched.Drain(100)
		r.sched.RunUntil(des.Time(sec+1) * des.Second)
	}
	if got := r.net.ICMPSent[tor]; got != int64(seconds) {
		t.Fatalf("sent %d ICMP, want %d", got, seconds)
	}
	// The folded distribution still covers the whole run: every busy
	// switch-second had exactly one message.
	zero, low, high, max := r.net.ICMPSecondStats(int64(seconds))
	if max != 1 || high != 0 {
		t.Fatalf("distribution wrong: max=%d high=%v", max, high)
	}
	wantLow := 1 / float64(len(r.topo.Switches))
	if diff := low - wantLow; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("low fraction %v, want %v", low, wantLow)
	}
	if zero+low+high < 0.999 || zero+low+high > 1.001 {
		t.Fatalf("fractions don't sum to 1: %v %v %v", zero, low, high)
	}
}

// The incremental TTL checksum patch (RFC 1624) must agree with a full
// header recompute for every TTL and random header contents.
func TestDecrementTTLMatchesRecompute(t *testing.T) {
	rng := stats.NewRNG(11)
	for i := 0; i < 20000; i++ {
		buf := wire.NewBuffer(64)
		ip := wire.IPv4{
			TOS: uint8(rng.Intn(256)), ID: uint16(rng.Intn(65536)),
			TTL: uint8(rng.IntRange(2, 255)), Protocol: uint8(rng.Intn(256)),
			Src: uint32(rng.Uint64()), Dst: uint32(rng.Uint64()),
		}
		ip.SerializeTo(buf)
		data := buf.Bytes()
		want := append([]byte(nil), data...)
		want[8]--
		want[10], want[11] = 0, 0
		sum := wire.Checksum(want[:wire.IPv4HeaderLen])
		want[10], want[11] = byte(sum>>8), byte(sum)
		decrementTTL(data)
		if data[10] != want[10] || data[11] != want[11] {
			t.Fatalf("ttl %d: incremental %02x%02x, recompute %02x%02x",
				ip.TTL+1, data[10], data[11], want[10], want[11])
		}
		if wire.Checksum(data[:wire.IPv4HeaderLen]) != 0 {
			t.Fatalf("patched header does not verify")
		}
	}
}

// Packet buffers must actually recycle: a steady packet stream leaves the
// pool at its high-water mark instead of growing, and a warmed fabric
// forwards without allocating.
func TestPacketPoolRecycles(t *testing.T) {
	r := newRig(t, topology.TestClusterConfig, 12)
	src := r.topo.HostAt(0, 0, 0)
	dst := r.topo.HostAt(0, 5, 1)
	delivered := 0
	r.net.OnHostPacket(dst, func([]byte, uint64) { delivered++ })
	send := func() {
		pkt := r.net.NewPacket()
		ip := wire.IPv4{TTL: 64, Protocol: wire.ProtoTCP, Src: r.topo.Hosts[src].IP, Dst: r.topo.Hosts[dst].IP}
		tcp := wire.TCP{SrcPort: 40000, DstPort: 443, Flags: wire.FlagPSH | wire.FlagACK}
		tcp.SerializeTo(pkt, &ip)
		ip.SerializeTo(pkt)
		r.net.Send(src, pkt)
		r.sched.Drain(100)
	}
	send() // warm the pool and the scheduler lanes
	avg := testing.AllocsPerRun(100, send)
	if avg > 0 {
		t.Fatalf("warmed forwarding allocates %.1f times per packet", avg)
	}
	if delivered < 100 {
		t.Fatalf("delivered %d packets", delivered)
	}
}
