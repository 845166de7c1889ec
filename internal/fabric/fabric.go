// Package fabric emulates the datacenter's data plane at packet level:
// switches forward serialized IPv4 packets hop by hop under ECMP, decrement
// TTLs, and answer expired probes with ICMP time-exceeded messages from a
// control plane whose ICMP generation is capped by a token bucket — the
// Tmax = 100/s limit that Theorem 1 is built around. Links drop packets
// with injectable probabilities, and mirror taps provide the
// EverFlow-style observation points used for ground truth.
//
// The fabric runs on virtual time (package des). Determinism comes from the
// explicit seeding, the per-link counter-derived drop draws and the
// scheduler's (time, tie) ordering.
//
// A hop costs a scheduler event only where its place in the event order can
// matter. On a fabric with no mirror tap, send carries a packet through
// every following switch whose forwarding is certain and unobservable and
// schedules one delivery where that stops — see cutthrough.go. A tapped
// fabric executes every hop as its own event, and is the reference the
// cut-through is tested against.
//
// Packet memory is pooled: a packet lives in a wire.Buffer obtained from
// the fabric's free list (NewPacket), is carried by reference through
// send → hop → deliver, and returns to the pool the moment it dies — on a
// link drop, a corrupt or unroutable header, a TTL expiry (after the ICMP
// reply is built), or right after the destination host's receive callback
// returns. Host callbacks therefore only borrow the packet bytes and must
// not retain them. Steady-state forwarding allocates nothing.
package fabric

import (
	"encoding/binary"
	"fmt"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

// PacketHeadroom is the prepend room NewPacket reserves: enough for the
// deepest header stack the emulation builds (outer IPv4 + ICMP + embedded
// IPv4 header + 8 payload bytes).
const PacketHeadroom = 64

// linkDelay is the one-hop propagation+processing delay (datacenter RTTs
// are "less than 1 or 2 ms", §4.2).
const linkDelay = 5 * des.Microsecond

// Tmax caps each switch's ICMP generation rate (messages/second): the
// paper's operators set 100, and Theorem 1 derives the hosts' traceroute
// budget Ct from it.
const Tmax = 100

// evDeliver is the fabric's one typed event: a packet arriving at the far
// end of a link (arg = link id, payload = the packet buffer).
const evDeliver int32 = 1

// Config assembles a fabric.
type Config struct {
	Topo   *topology.Topology
	Router *ecmp.Router
	// Sched is the fabric's clock and event queue.
	Sched *des.Scheduler
	RNG   *stats.RNG
}

// TapEvent is one observation from a mirror tap (EverFlow-style) or a drop
// notification used as ground truth by tests.
type TapEvent struct {
	Time    des.Time
	Switch  topology.SwitchID // -1 when the event happened on a host link
	Egress  topology.LinkID
	Dropped bool // true: the packet died on Egress
	IP      wire.IPv4
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	// Tag is the dropped packet's Flight.Tag as its sender set it (zero
	// on forwarding events).
	Tag uint64
}

// Tap observes forwarded and dropped packets.
type Tap func(TapEvent)

// icmpSecCount is one switch's live ICMP counter for the current virtual
// second; finished seconds fold into the aggregate distribution.
type icmpSecCount struct {
	sec int64
	n   int32
}

// Net is the running fabric, and the des.Handler its delivery events
// target.
type Net struct {
	cfg        Config
	topo       *topology.Topology
	pool       wire.Pool
	dropRate   []float64
	baseRate   []float64 // per-link baseline (noise) rate a cleared link returns to
	extraDelay []des.Time
	hostRx     []func(data []byte, tag uint64)
	buckets    []tokenBucket
	taps       []Tap
	dropTaps   []Tap

	// dropSeed/dropCtr drive the per-link counter-derived drop draws: the
	// decision for link l's k-th packet is DeriveUniform(dropSeed, l◦k),
	// a pure function of the link and its local send count. Unlike a
	// shared RNG stream, the outcome cannot depend on how sends on
	// different links interleave — which is what lets a cut-through walk
	// verify a link's draws ahead of the hop that takes them.
	dropSeed uint64
	dropCtr  []uint64
	// pend counts, per link, the draws reserved by packets in cut-through
	// flight; passUntil bounds the run of counters known to draw "forward"
	// (see passes).
	pend      []int32
	passUntil []uint64

	// Cut-through state (cutthrough.go): the packets in flight over folded
	// hops, the flow→route cache their walks read, and the hop counters.
	flights        []*wire.Buffer
	routes         []route
	hopsFused      int64
	hopsStepped    int64
	rematerialized int64

	// serial numbers every packet by its origin: indexed by host, then by
	// switch (ICMP replies), see nextSerial.
	serial []uint64

	// Counters, indexed by link and switch respectively. Forwarding counts
	// are exact whenever RunUntil has returned; while it runs, a packet in
	// cut-through flight is credited to the links it skipped when it lands.
	LinkForwarded  []int64
	LinkDropped    []int64
	ICMPSent       []int64
	ICMPSuppressed []int64

	// icmpCur is the live per-switch ICMP counter for the current virtual
	// second; finished seconds fold into the bounded distribution below.
	icmpCur  []icmpSecCount
	icmpLow  int64 // finished switch-seconds with 1-3 messages
	icmpHigh int64 // finished switch-seconds with >3 messages
	icmpMax  int
}

// New builds a fabric over the topology.
func New(cfg Config) (*Net, error) {
	if cfg.Topo == nil || cfg.Router == nil || cfg.RNG == nil {
		return nil, fmt.Errorf("fabric: Topo, Router and RNG are all required")
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("fabric: Sched is required")
	}
	n := &Net{
		cfg:            cfg,
		topo:           cfg.Topo,
		dropRate:       make([]float64, len(cfg.Topo.Links)),
		baseRate:       make([]float64, len(cfg.Topo.Links)),
		extraDelay:     make([]des.Time, len(cfg.Topo.Links)),
		hostRx:         make([]func([]byte, uint64), len(cfg.Topo.Hosts)),
		buckets:        make([]tokenBucket, len(cfg.Topo.Switches)),
		dropSeed:       cfg.RNG.Uint64(),
		dropCtr:        make([]uint64, len(cfg.Topo.Links)),
		pend:           make([]int32, len(cfg.Topo.Links)),
		passUntil:      make([]uint64, len(cfg.Topo.Links)),
		serial:         make([]uint64, len(cfg.Topo.Hosts)+len(cfg.Topo.Switches)),
		LinkForwarded:  make([]int64, len(cfg.Topo.Links)),
		LinkDropped:    make([]int64, len(cfg.Topo.Links)),
		ICMPSent:       make([]int64, len(cfg.Topo.Switches)),
		ICMPSuppressed: make([]int64, len(cfg.Topo.Switches)),
		icmpCur:        make([]icmpSecCount, len(cfg.Topo.Switches)),
	}
	for i := range n.buckets {
		n.buckets[i] = tokenBucket{tokens: Tmax}
	}
	for i := range n.icmpCur {
		n.icmpCur[i].sec = -1
	}
	for i := range n.serial {
		n.serial[i] = uint64(i+1) << serialOriginShift
	}
	return n, nil
}

// serialOriginShift places a packet's origin above its origin's send count
// in the serial. Nothing masks the count: an origin that sent 2^40 packets
// would run into the next origin's numbers — its own packets still in send
// order — long after any run this emulation can make. A serial must stay
// below 2^63 (des.PostTie panics at that bit rather than wrap), another
// 2^22 times further out.
const serialOriginShift = 40

// nextSerial numbers the next packet node i originates (hosts first, then
// switches). The serial is the packet's tie-break among simultaneous
// deliveries (des.PostTie): packets of one origin arrive in the order they
// were sent, packets of different origins in origin order.
func (n *Net) nextSerial(i int) uint64 {
	s := n.serial[i]
	n.serial[i] = s + 1
	return s
}

// SetDropRate injects a drop probability on a directed link. The rate must
// be a probability in [0, 1] and the link must exist in the topology.
func (n *Net) SetDropRate(l topology.LinkID, rate float64) error {
	if err := n.topo.CheckLink(l); err != nil {
		return err
	}
	if !schedule.ValidRate(rate) {
		return fmt.Errorf("fabric: drop rate %v outside [0, 1]", rate)
	}
	n.rematerialize(l)
	n.setRate(l, rate)
	return nil
}

// setRate applies a link's drop rate. Callers have rematerialized: the
// packets in cut-through flight over l were walked under the old rate.
func (n *Net) setRate(l topology.LinkID, rate float64) {
	n.dropRate[l] = rate
	n.passUntil[l] = 0 // the known-forward run was drawn against the old rate
}

// SetBaseRate sets a link's baseline (noise) drop rate — the rate
// ResetDropRate returns the link to — and applies it immediately. Injected
// failures overwrite the applied rate but never the baseline.
func (n *Net) SetBaseRate(l topology.LinkID, rate float64) error {
	if err := n.SetDropRate(l, rate); err != nil {
		return err
	}
	n.baseRate[l] = rate
	return nil
}

// ResetDropRate restores a link to its baseline (noise) rate.
func (n *Net) ResetDropRate(l topology.LinkID) error {
	if err := n.topo.CheckLink(l); err != nil {
		return err
	}
	n.rematerialize(l)
	n.setRate(l, n.baseRate[l])
	return nil
}

// Test hook: DropRate returns a link's current drop probability, so a test
// can see what an injection or a reset left on it.
func (n *Net) DropRate(l topology.LinkID) float64 { return n.dropRate[l] }

// SetExtraDelay injects additional one-way latency on a directed link —
// the "large queue buildups" and latency failures of §9.2 that 007's
// RTT-threshold extension diagnoses. Like every other link mutator the
// link is validated (an out-of-range id used to panic on the slice index),
// and the delay must be non-negative: a negative value would clamp
// deliveries to "now", reordering the scheduler's FIFO lane.
func (n *Net) SetExtraDelay(l topology.LinkID, d des.Time) error {
	if err := n.topo.CheckLink(l); err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("fabric: negative extra delay %d on link %d", d, l)
	}
	n.rematerialize(l)
	n.extraDelay[l] = d
	return nil
}

// OnHostPacket registers the receive handler for host h. The handler
// borrows data only for the duration of the call: the backing buffer
// returns to the packet pool as soon as it returns, so retaining callers
// must copy. tag is the packet's Flight.Tag as its sender set it (zero for
// packets the fabric built: ICMP replies).
func (n *Net) OnHostPacket(h topology.HostID, fn func(data []byte, tag uint64)) { n.hostRx[h] = fn }

// AddTap installs a mirror tap observing every switch forwarding decision
// and every link drop. A tapped fabric forwards hop by hop: every decision
// the tap is owed is a scheduler event.
func (n *Net) AddTap(t Tap) {
	n.rematerialize(topology.NoLink)
	n.taps = append(n.taps, t)
}

// AddDropTap installs a tap that only observes link drops. Drop-only
// consumers (the cluster's ground-truth harvest) register here so the
// per-hop forwarding path does not pay for building their events.
func (n *Net) AddDropTap(t Tap) { n.dropTaps = append(n.dropTaps, t) }

// NewPacket returns an empty pooled buffer with standard headroom. Fill it
// payload-first (wire's prepend discipline) and hand it to Send, which
// takes ownership.
func (n *Net) NewPacket() *wire.Buffer { return n.pool.Get(PacketHeadroom) }

// Send injects a serialized packet from host h onto its uplink, taking
// ownership of pkt: the fabric releases it back to the pool when the packet
// dies. The buffer must have come from NewPacket.
func (n *Net) Send(h topology.HostID, pkt *wire.Buffer) {
	pkt.Flight.Serial = n.nextSerial(int(h))
	n.send(n.topo.Hosts[h].Uplink, pkt)
}

// send carries pkt across link l: maybe drop, else deliver to the far
// end after the link delay. Ownership of pkt passes to the fabric.
func (n *Net) send(l topology.LinkID, pkt *wire.Buffer) {
	r := n.dropRate[l]
	if r > 0 {
		if n.pend[l] > 0 && !n.passes(l) {
			// Packets in cut-through flight hold draws on l that the counter
			// does not show yet, and this packet's draw may drop whichever
			// of them it gets: put those flights back on the hop-by-hop
			// order first, so that the counter below is the exact one.
			n.rematerialize(l)
		}
		ctr := n.dropCtr[l]
		n.dropCtr[l] = ctr + 1
		if stats.DeriveUniform(n.dropSeed, uint64(l)<<40|ctr) < r {
			n.LinkDropped[l]++
			n.notifyDrop(l, pkt)
			n.pool.Put(pkt)
			return
		}
	}
	n.LinkForwarded[l]++
	at := n.cfg.Sched.Now() + linkDelay + n.extraDelay[l]
	if len(n.taps) == 0 {
		l, at = n.fly(l, at, pkt)
	}
	n.cfg.Sched.PostTie(at, pkt.Flight.Serial, n, evDeliver, int64(l), pkt)
}

// HandleEvent delivers a packet at the far end of its link (the fabric's
// one typed DES event).
func (n *Net) HandleEvent(kind int32, arg int64, p any) {
	_ = kind // evDeliver is the only kind the fabric schedules
	pkt := p.(*wire.Buffer)
	if hops := pkt.Flight.Hops; hops != 0 {
		if hops < 0 {
			n.pool.Put(pkt) // the packet was rematerialized into another buffer
			return
		}
		n.land(pkt)
	}
	to := n.topo.Links[arg].To
	if to.Kind == topology.NodeHost {
		if fn := n.hostRx[to.ID]; fn != nil {
			fn(pkt.Bytes(), pkt.Flight.Tag)
		}
		n.pool.Put(pkt)
		return
	}
	n.switchHandle(topology.SwitchID(to.ID), pkt)
}

// switchHandle is a switch's forwarding path. It owns pkt: every exit
// either forwards it onward or releases it.
func (n *Net) switchHandle(sw topology.SwitchID, pkt *wire.Buffer) {
	n.hopsStepped++
	data := pkt.Bytes()
	var ip wire.IPv4
	payload, err := wire.DecodeIPv4(data, &ip)
	if err != nil {
		n.pool.Put(pkt) // corrupt header: silently dropped, as hardware would
		return
	}
	if ip.TTL <= 1 {
		n.ttlExpired(sw, data, ip)
		n.pool.Put(pkt)
		return
	}
	dstNode, ok := n.topo.LookupIP(ip.Dst)
	if !ok || dstNode.Kind != topology.NodeHost {
		n.pool.Put(pkt) // not routable (switch loopbacks are never packet sinks)
		return
	}
	decrementTTL(data)
	var tuple ecmp.FiveTuple
	seq := flowOf(&ip, payload, &tuple)
	egress, err := n.cfg.Router.NextHopLink(sw, tuple, topology.HostID(dstNode.ID))
	if err != nil {
		n.pool.Put(pkt)
		return
	}
	n.notifyForward(sw, egress, ip, tuple, seq)
	n.send(egress, pkt)
}

// flowOf lifts the ECMP five-tuple out of a decoded packet into t, and
// returns the TCP sequence number the mirror taps report. The tuple is the
// same at every hop of the packet's path, so a cut-through walk reads it
// once.
func flowOf(ip *wire.IPv4, payload []byte, t *ecmp.FiveTuple) (seq uint32) {
	*t = ecmp.FiveTuple{SrcIP: ip.Src, DstIP: ip.Dst, Proto: ip.Protocol}
	if ip.Protocol == wire.ProtoTCP && len(payload) >= 8 {
		t.SrcPort = uint16(payload[0])<<8 | uint16(payload[1])
		t.DstPort = uint16(payload[2])<<8 | uint16(payload[3])
		seq = uint32(payload[4])<<24 | uint32(payload[5])<<16 | uint32(payload[6])<<8 | uint32(payload[7])
	}
	return seq
}

// ttlExpired runs the switch control plane: generate an ICMP time-exceeded
// reply if the token bucket allows, else silently drop (the switch CPU is
// protected; this is exactly the behaviour 007's Ct bound must respect).
// It borrows data; the caller still owns (and releases) the expired packet.
func (n *Net) ttlExpired(sw topology.SwitchID, data []byte, ip wire.IPv4) {
	if ip.Protocol == wire.ProtoICMP {
		return // never ICMP about ICMP (RFC 792 discipline)
	}
	srcNode, ok := n.topo.LookupIP(ip.Src)
	if !ok || srcNode.Kind != topology.NodeHost {
		return
	}
	now := n.cfg.Sched.Now()
	if !n.buckets[sw].allow(now) {
		n.ICMPSuppressed[sw]++
		return
	}
	n.ICMPSent[sw]++
	n.countICMP(sw, int64(now/des.Second))

	// RFC 792 body: the expired packet's IP header plus its first 8 payload
	// bytes, copied straight into a pooled reply buffer.
	k := wire.IPv4HeaderLen + 8
	if k > len(data) {
		k = len(data)
	}
	reply := n.pool.Get(PacketHeadroom)
	reply.Flight.Serial = n.nextSerial(len(n.topo.Hosts) + int(sw))
	reply.Append(data[:k])
	ic := wire.ICMP{Type: wire.ICMPTypeTimeExceeded, Code: wire.ICMPCodeTTLExpired}
	ic.SerializeTo(reply)
	replyIP := wire.IPv4{
		TTL: 64, Protocol: wire.ProtoICMP,
		Src: n.topo.Switches[sw].IP, Dst: ip.Src,
	}
	replyIP.SerializeTo(reply)

	tuple := ecmp.FiveTuple{SrcIP: replyIP.Src, DstIP: replyIP.Dst, Proto: wire.ProtoICMP}
	egress, err := n.cfg.Router.NextHopLink(sw, tuple, topology.HostID(srcNode.ID))
	if err != nil {
		n.pool.Put(reply)
		return
	}
	n.send(egress, reply)
}

// decrementTTL patches the TTL and updates the header checksum
// incrementally (RFC 1624): the TTL sits in the high byte of word 4, so
// the word drops by 0x0100 and HC' = ~(~HC + ~m + m').
func decrementTTL(data []byte) {
	m := binary.BigEndian.Uint16(data[8:])
	data[8]--
	m1 := binary.BigEndian.Uint16(data[8:])
	hc := binary.BigEndian.Uint16(data[10:])
	sum := uint32(^hc) + uint32(^m) + uint32(m1)
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(data[10:], ^uint16(sum))
}

func (n *Net) notifyForward(sw topology.SwitchID, egress topology.LinkID, ip wire.IPv4, t ecmp.FiveTuple, seq uint32) {
	if len(n.taps) == 0 {
		return
	}
	ev := TapEvent{
		Time: n.cfg.Sched.Now(), Switch: sw, Egress: egress,
		IP: ip, SrcPort: t.SrcPort, DstPort: t.DstPort, Seq: seq,
	}
	for _, tap := range n.taps {
		tap(ev)
	}
}

func (n *Net) notifyDrop(l topology.LinkID, pkt *wire.Buffer) {
	if len(n.taps) == 0 && len(n.dropTaps) == 0 {
		return
	}
	var ip wire.IPv4
	payload, err := wire.DecodeIPv4(pkt.Bytes(), &ip)
	if err != nil {
		return
	}
	ev := TapEvent{Time: n.cfg.Sched.Now(), Switch: -1, Egress: l, Dropped: true, IP: ip, Tag: pkt.Flight.Tag}
	if from := n.topo.Links[l].From; from.Kind == topology.NodeSwitch {
		ev.Switch = topology.SwitchID(from.ID)
	}
	if ip.Protocol == wire.ProtoTCP && len(payload) >= 8 {
		ev.SrcPort = uint16(payload[0])<<8 | uint16(payload[1])
		ev.DstPort = uint16(payload[2])<<8 | uint16(payload[3])
		ev.Seq = uint32(payload[4])<<24 | uint32(payload[5])<<16 | uint32(payload[6])<<8 | uint32(payload[7])
	}
	for _, tap := range n.taps {
		tap(ev)
	}
	for _, tap := range n.dropTaps {
		tap(ev)
	}
}

// countICMP advances a switch's live second counter, folding the finished
// second into the bounded distribution state.
func (n *Net) countICMP(sw topology.SwitchID, sec int64) {
	cur := &n.icmpCur[sw]
	if cur.sec != sec {
		if cur.n > 0 {
			n.foldICMPSecond(cur.n)
		}
		cur.sec = sec
		cur.n = 0
	}
	cur.n++
}

// foldICMPSecond retires one finished (switch, second) count into the
// aggregates.
func (n *Net) foldICMPSecond(c int32) {
	if c > 3 {
		n.icmpHigh++
	} else {
		n.icmpLow++
	}
	if int(c) > n.icmpMax {
		n.icmpMax = int(c)
	}
}

// ICMPSecondStats summarizes the per-switch per-second ICMP distribution
// over an observation window, Table 1's format: the fraction of
// switch-seconds with zero, 1-3, and >3 messages, plus the maximum.
func (n *Net) ICMPSecondStats(seconds int64) (zero, low, high float64, max int) {
	total := seconds * int64(len(n.topo.Switches))
	if total == 0 {
		return 1, 0, 0, 0
	}
	nLow, nHigh, maxC := n.icmpLow, n.icmpHigh, n.icmpMax
	for i := range n.icmpCur {
		c := int(n.icmpCur[i].n)
		if c == 0 {
			continue
		}
		if c > maxC {
			maxC = c
		}
		if c > 3 {
			nHigh++
		} else {
			nLow++
		}
	}
	max = maxC
	nZero := total - nLow - nHigh
	return float64(nZero) / float64(total), float64(nLow) / float64(total),
		float64(nHigh) / float64(total), max
}

// tokenBucket enforces the control-plane ICMP cap: Tmax tokens per
// virtual second, at most Tmax banked.
type tokenBucket struct {
	tokens float64
	last   des.Time
}

func (b *tokenBucket) allow(now des.Time) bool {
	elapsed := float64(now-b.last) / float64(des.Second)
	b.last = now
	b.tokens += elapsed * Tmax
	if b.tokens > Tmax {
		b.tokens = Tmax
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
