package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"vigil/internal/des"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

// cutTopo is a small three-tier Clos: every link class, six-link routes.
var cutTopo = topology.Config{Pods: 3, ToRsPerPod: 2, T1PerPod: 2, T2: 2, HostsPerToR: 2}

// rxLog records, per host, every packet delivered: when, which bytes and
// which tag. Two fabrics that agree on it delivered the same packets, with
// the same TTLs, checksums and tags, at the same instants, in the same
// order. badTags counts deliveries whose tag is not the one their sender
// set (see tagOf).
type rxLog struct {
	lines   []string
	badTags int
}

func (l *rxLog) attach(r *rig) {
	for h := range r.topo.Hosts {
		h := topology.HostID(h)
		r.net.OnHostPacket(h, func(data []byte, tag uint64) {
			sum := fnv.New64a()
			sum.Write(data)
			l.lines = append(l.lines, fmt.Sprintf("t=%d host=%d ttl=%d tag=%x %x", r.sched.Now(), h, data[8], tag, sum.Sum64()))
			if tag != tagOf(data) {
				l.badTags++
			}
		})
	}
}

// tagOf is the tag trafficScript sends a packet with: its ports and
// sequence number for TCP, and zero for the fabric's own ICMP replies.
func tagOf(data []byte) uint64 {
	if data[9] != wire.ProtoTCP {
		return 0
	}
	return binary.BigEndian.Uint64(data[wire.IPv4HeaderLen:])
}

// trafficScript schedules a seeded mix onto r, all inside the first
// `span` microseconds: tagged data packets between random hosts,
// traceroute-style probes (TTL 1-7, so they expire at every tier or reach
// the host), bursts on one microsecond, and — when churn is set — link
// changes in the middle of it all. Everything is posted as closure events (key 0), which sort
// ahead of the tick's deliveries.
func trafficScript(r *rig, seed uint64, span int, churn bool) {
	rng := stats.NewRNG(seed)
	hosts := len(r.topo.Hosts)
	for i := 0; i < 400; i++ {
		src := topology.HostID(rng.Intn(hosts))
		dst := topology.HostID(rng.Intn(hosts))
		if src == dst {
			continue
		}
		at := des.Time(rng.Intn(span))
		ttl := uint8(64)
		id := uint16(0)
		if rng.Bool(0.3) {
			ttl = uint8(rng.IntRange(1, 7))
			id = uint16(ttl)
		}
		burst := 1
		if rng.Bool(0.2) {
			burst = rng.IntRange(2, 8)
		}
		sport := uint16(rng.IntRange(32768, 65535))
		for b := 0; b < burst; b++ {
			data := tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, sport, 443, uint32(b), ttl, id)
			r.sched.At(at, func() {
				pkt := r.net.NewPacket()
				pkt.Append(data)
				pkt.Flight.Tag = tagOf(data)
				r.net.Send(src, pkt)
			})
		}
	}
	if !churn {
		return
	}
	links := len(r.topo.Links)
	for i := 0; i < 12; i++ {
		l := topology.LinkID(rng.Intn(links))
		at := des.Time(rng.Intn(span))
		switch rng.Intn(3) {
		case 0:
			d := des.Time(rng.Intn(40))
			r.sched.At(at, func() { r.net.SetExtraDelay(l, d) })
		case 1:
			rate := []float64{0, 0.2, 1}[rng.Intn(3)]
			r.sched.At(at, func() { r.net.SetDropRate(l, rate) })
		case 2:
			r.sched.At(at, func() { r.net.ResetDropRate(l) })
		}
	}
}

// cutRig builds the rig of one differential run: lossy and slow links set
// up front, the no-op tap when the run is the per-hop reference.
func cutRig(t *testing.T, seed uint64, perHop, noise bool) (*rig, *rxLog) {
	t.Helper()
	r := newRig(t, cutTopo, seed)
	rng := stats.NewRNG(seed ^ 0xabcdef)
	for l := range r.topo.Links {
		switch {
		case noise:
			r.net.SetBaseRate(topology.LinkID(l), rng.Uniform(0, 0.02))
		case rng.Bool(0.08):
			r.net.SetDropRate(topology.LinkID(l), rng.Uniform(0.05, 0.5))
		}
		if rng.Bool(0.1) {
			r.net.SetExtraDelay(topology.LinkID(l), des.Time(rng.Intn(30)))
		}
	}
	if perHop {
		r.net.AddTap(func(TapEvent) {})
	}
	log := &rxLog{}
	log.attach(r)
	return r, log
}

func counters(n *Net) string {
	return fmt.Sprint(n.LinkForwarded, n.LinkDropped, n.ICMPSent, n.ICMPSuppressed, n.dropCtr)
}

// Cut-through against the per-hop reference at the fabric's own surface:
// the same packets, byte for byte, reach the same hosts at the same
// instants in the same order, and every counter agrees — with static lossy
// and slow links, with noise on every link, and with links changing under
// the packets in flight.
func TestCutThroughDeliversSameBytes(t *testing.T) {
	for _, mode := range []struct {
		name         string
		noise, churn bool
	}{{"static", false, false}, {"noise", true, false}, {"churn", false, true}, {"noise+churn", true, true}} {
		t.Run(mode.name, func(t *testing.T) {
			var fused, remat int64
			seeds := uint64(25)
			if testing.Short() {
				seeds = 8
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				run := func(perHop bool) (*rig, *rxLog) {
					r, log := cutRig(t, seed, perHop, mode.noise)
					trafficScript(r, seed, 300, mode.churn)
					r.sched.RunUntil(des.Second)
					return r, log
				}
				cut, cutLog := run(false)
				ref, refLog := run(true)
				if ref.net.HopsFused() != 0 {
					t.Fatalf("seed %d: the tapped reference fused %d hops", seed, ref.net.HopsFused())
				}
				if cutLog.badTags != 0 || refLog.badTags != 0 {
					t.Fatalf("seed %d: %d cut-through and %d per-hop deliveries lost their sender's tag", seed, cutLog.badTags, refLog.badTags)
				}
				if !slices.Equal(cutLog.lines, refLog.lines) {
					for i := range refLog.lines {
						if i >= len(cutLog.lines) || cutLog.lines[i] != refLog.lines[i] {
							t.Fatalf("seed %d: delivery %d differs:\n per-hop     %s\n cut-through %v", seed, i, refLog.lines[i], cutLog.lines[i:min(i+1, len(cutLog.lines))])
						}
					}
					t.Fatalf("seed %d: cut-through delivered %d packets, per-hop %d", seed, len(cutLog.lines), len(refLog.lines))
				}
				if a, b := counters(cut.net), counters(ref.net); a != b {
					t.Fatalf("seed %d: counters differ:\n per-hop     %s\n cut-through %s", seed, b, a)
				}
				if got, want := cut.net.HopsFused()+cut.net.HopsStepped(), ref.net.HopsStepped(); got != want {
					t.Fatalf("seed %d: cut-through accounts for %d switch hops, per-hop stepped %d", seed, got, want)
				}
				if n := len(cut.net.flights); n != 0 {
					t.Fatalf("seed %d: %d packets still in flight after RunUntil", seed, n)
				}
				for l, p := range cut.net.pend {
					if p != 0 {
						t.Fatalf("seed %d: link %d still has %d draws reserved", seed, l, p)
					}
				}
				fused += cut.net.HopsFused()
				remat += cut.net.Rematerialized()
			}
			if fused == 0 {
				t.Fatal("nothing fused")
			}
			if mode.churn && remat == 0 {
				t.Fatal("link churn rematerialized nothing")
			}
			t.Logf("hops fused %d, packets rematerialized %d", fused, remat)
		})
	}
}

// Forwarding counters are exact whenever RunUntil has returned: driving the
// clock in steps of 1µs (too short for anything to fuse), 7µs and 23µs (some
// flights cut short at every deadline), or in one call per deadline, gives
// the per-hop fabric's vectors at every return, because no flight outlives
// the RunUntil that launched it.
func TestCutThroughBoundaryExact(t *testing.T) {
	const span = 120
	for _, noise := range []bool{false, true} {
		rigFor := func(perHop bool) *rig {
			r, _ := cutRig(t, 3, perHop, noise)
			trafficScript(r, 3, 60, true)
			return r
		}
		perHop := rigFor(true)
		steps := []des.Time{1, 7, 23}
		stepped := []*rig{rigFor(false), rigFor(false), rigFor(false)}
		var oneCallFused int64
		for at := des.Time(1); at <= span; at++ {
			perHop.sched.RunUntil(at)
			want := counters(perHop.net)
			for i, step := range steps {
				if at%step != 0 {
					continue
				}
				stepped[i].sched.RunUntil(at)
				if got := counters(stepped[i].net); got != want {
					t.Fatalf("noise=%v t=%d: %dµs steps differ from per-hop:\n per-hop %s\n stepped %s", noise, at, step, want, got)
				}
			}
			oneCall := rigFor(false)
			oneCall.sched.RunUntil(at)
			if got := counters(oneCall.net); got != want {
				t.Fatalf("noise=%v t=%d: one RunUntil differs from per-hop:\n per-hop  %s\n one call %s", noise, at, want, got)
			}
			oneCallFused += oneCall.net.HopsFused()
		}
		if stepped[0].net.HopsFused() != 0 {
			t.Fatalf("noise=%v: a hop fused inside a 1µs step, shorter than any link", noise)
		}
		if stepped[2].net.HopsFused() == 0 || oneCallFused == 0 {
			t.Fatalf("noise=%v: nothing fused (23µs steps %d, one call %d)", noise, stepped[2].net.HopsFused(), oneCallFused)
		}
	}
}

// Outside RunUntil there is no deadline to land inside: Step and Drain move
// every packet hop by hop.
func TestNothingFusesWithoutDeadline(t *testing.T) {
	r, _ := cutRig(t, 5, false, false)
	trafficScript(r, 5, 100, false)
	r.sched.Drain(1 << 20)
	if f := r.net.HopsFused(); f != 0 {
		t.Fatalf("Drain fused %d hops", f)
	}
	if r.net.HopsStepped() == 0 {
		t.Fatal("no hops stepped")
	}
}

// Simultaneous deliveries on a link fire in serial order, so one host's
// packets arrive in the order it sent them — a window burst and a 30-probe
// traceroute sent on one microsecond — wherever the origin's counter
// stands: nothing masks it, so there is no value below the scheduler's 2^63
// tie bound at which it wraps and a later packet sorts first. The last
// counter brings the second origin's last packet to serial 2^63-1. A second
// origin's burst on the same links interleaves as a block, never inside the
// first's.
func TestSerialOrdersBurst(t *testing.T) {
	for _, perHop := range []bool{false, true} {
		for _, ctr := range []uint64{0, 1<<32 - 5, 1<<40 - 5, 1<<41 - 5, 1<<63 - 2<<serialOriginShift - 38} {
			r := newRig(t, cutTopo, 9)
			if perHop {
				r.net.AddTap(func(TapEvent) {})
			}
			src, other := r.topo.HostAt(0, 0, 0), r.topo.HostAt(0, 0, 1)
			dst := r.topo.HostAt(2, 1, 1)
			r.net.serial[src] += ctr
			r.net.serial[other] += ctr
			var got []string
			r.net.OnHostPacket(dst, func(data []byte, _ uint64) {
				var ip wire.IPv4
				payload, err := wire.DecodeIPv4(data, &ip)
				if err != nil {
					t.Fatal(err)
				}
				var tcp wire.TCP
				if _, err := wire.DecodeTCP(payload, &tcp); err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s id=%d seq=%d", topology.FormatIP(ip.Src), ip.ID, tcp.Seq))
			})
			var want []string
			r.sched.At(10, func() {
				for _, h := range []topology.HostID{other, src} {
					ip := r.topo.Hosts[h].IP
					for seq := uint32(0); seq < 8; seq++ {
						sendCopy(r.net, h, tcpPacket(ip, r.topo.Hosts[dst].IP, 40000, 443, seq, 64, 0))
					}
					for ttl := uint8(1); ttl <= 30; ttl++ {
						sendCopy(r.net, h, tcpPacket(ip, r.topo.Hosts[dst].IP, 40000, 443, 0, ttl, uint16(ttl)))
					}
				}
			})
			// Origin order: src (the lower host) first, whichever sent first.
			for _, h := range []topology.HostID{src, other} {
				for seq := 0; seq < 8; seq++ {
					want = append(want, fmt.Sprintf("%s id=0 seq=%d", topology.FormatIP(r.topo.Hosts[h].IP), seq))
				}
				for ttl := 6; ttl <= 30; ttl++ { // TTL 1-5 expire at the five switches
					want = append(want, fmt.Sprintf("%s id=%d seq=0", topology.FormatIP(r.topo.Hosts[h].IP), ttl))
				}
			}
			r.sched.RunUntil(des.Second)
			if !slices.Equal(got, want) {
				t.Fatalf("perHop=%v counter=%#x: arrival order\n got  %v\n want %v", perHop, ctr, got, want)
			}
		}
	}
}

// The one-step TTL patch a landing applies must leave exactly the bytes k
// single decrements leave — not merely an equivalent checksum.
func TestLowerTTLMatchesDecrements(t *testing.T) {
	check := func(hdr []byte, k int) {
		t.Helper()
		a := append([]byte(nil), hdr...)
		b := append([]byte(nil), hdr...)
		for i := 0; i < k; i++ {
			decrementTTL(a)
		}
		lowerTTL(b, k)
		if !slices.Equal(a, b) {
			t.Fatalf("k=%d header %x: %d decrements give %x, one patch %x", k, hdr, k, a, b)
		}
	}
	// Every checksum value (valid or not) against a few TTL/protocol words.
	hdr := make([]byte, wire.IPv4HeaderLen)
	ttls := []byte{7, 8, 64, 255}
	if testing.Short() {
		ttls = ttls[:1]
	}
	for _, ttl := range ttls {
		for _, proto := range []byte{0, 6, 255} {
			hdr[8], hdr[9] = ttl, proto
			for hc := 0; hc < 1<<16; hc++ {
				hdr[10], hdr[11] = byte(hc>>8), byte(hc)
				for k := 1; k <= wire.MaxFlightHops; k++ {
					check(hdr, k)
				}
			}
		}
	}
	rng := stats.NewRNG(17)
	for i := 0; i < 20000; i++ {
		buf := wire.NewBuffer(64)
		ip := wire.IPv4{
			TOS: uint8(rng.Intn(256)), ID: uint16(rng.Intn(65536)),
			TTL: uint8(rng.IntRange(wire.MaxFlightHops+1, 255)), Protocol: uint8(rng.Intn(256)),
			Src: uint32(rng.Uint64()), Dst: uint32(rng.Uint64()),
		}
		ip.SerializeTo(buf)
		check(buf.Bytes(), rng.IntRange(1, wire.MaxFlightHops))
	}
}

// A fused flight allocates nothing once the pools, the registry and the
// route cache are warm.
func TestCutThroughAllocFree(t *testing.T) {
	r := newRig(t, cutTopo, 12)
	src, dst := r.topo.HostAt(0, 0, 0), r.topo.HostAt(2, 1, 1)
	delivered := 0
	r.net.OnHostPacket(dst, func([]byte, uint64) { delivered++ })
	pkt := tcpPacket(r.topo.Hosts[src].IP, r.topo.Hosts[dst].IP, 40000, 443, 0, 64, 0)
	send := func() {
		for i := 0; i < 8; i++ {
			sendCopy(r.net, src, pkt)
		}
		r.sched.RunUntil(r.sched.Now() + 100)
	}
	send()
	if avg := testing.AllocsPerRun(100, send); avg > 0 {
		t.Fatalf("warmed cut-through forwarding allocates %.1f times per burst", avg)
	}
	if delivered < 800 || r.net.HopsFused() == 0 {
		t.Fatalf("delivered %d packets, fused %d hops", delivered, r.net.HopsFused())
	}
}
