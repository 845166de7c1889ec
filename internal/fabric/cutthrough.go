package fabric

// Cut-through: one scheduler event per packet flight instead of one per hop.
//
// A switch hop is a scheduler event for one reason only: so that whatever it
// reads and writes happens at its place in the (time, tie) order. Most
// hops have nothing at stake there. Forwarding a well-formed packet with TTL
// to spare onto a link that will not drop it reads state that only the
// fabric's own mutators change (rates, delays, taps) and writes a
// commutative count (LinkForwarded), the packet's own TTL byte, and one
// delivery whose (time, tie) is a function of the packet, not of
// when the hop ran. So send, once the packet has survived the link it is
// entering, walks it on through the following switches inline (fly) for as
// long as each hop is of that kind, and schedules ONE delivery at the first
// node where it is not: the switch where the TTL runs out (ICMP and its token
// bucket are order-dependent), a switch whose egress may drop the packet, a
// header no switch would forward, the destination host — or the node the
// packet reaches after the running RunUntil deadline, because once RunUntil
// returns the driver may read counters and change links. The hops
// walked over are applied when that delivery fires (land): one TTL patch and
// one LinkForwarded credit each. Every flight therefore lands inside the
// RunUntil that launched it, and between runs no packet is in flight.
//
// Lossy links. With noise on, every link's rate is positive and every
// crossing consumes one counter-derived draw, DeriveUniform(dropSeed,
// link◦counter): which crossing gets which counter depends on the order of
// the hops. But the order only matters for a counter whose draw says "drop".
// passUntil[l] bounds a run of counters on l all verified to draw "forward";
// a walk may cross l as long as its draw — whichever counter in
// [dropCtr, dropCtr+pend] the true order hands it — lies inside that run, and
// reserves it in pend[l] until it lands. A hop-by-hop crossing that finds
// reservations outstanding and cannot prove the same for itself first
// rematerializes the flights holding them, which makes the counter exact
// again. Each counter's draw is still the same pure function; none is
// skipped.
//
// Rematerialization. A mutator (SetDropRate, ResetDropRate, SetExtraDelay,
// AddTap) called from inside a run invalidates what the walks
// assumed about hops the order has not reached yet. It first puts the
// flights it affects back on the hop-by-hop order: hops ordered before the
// executing event are applied as if they had run, and the packet is
// rescheduled as a delivery at the first hop that is not (rematerialize).
//
// The reference is the fabric with cut-through off — any fabric with a
// mirror tap installed — and the tests hold the two bit-identical.

import (
	"encoding/binary"
	"slices"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

// fly walks pkt — just admitted to link l, whose far end it reaches at `at`
// — through every following switch whose forwarding is certain and
// unobservable, and returns the link and time of the one delivery to
// schedule. It reads what switchHandle reads, once for the whole path.
func (n *Net) fly(l topology.LinkID, at des.Time, pkt *wire.Buffer) (topology.LinkID, des.Time) {
	first := n.topo.Links[l].To
	horizon := n.cfg.Sched.Horizon()
	if first.Kind == topology.NodeHost || at+linkDelay > horizon {
		return l, at
	}
	var ip wire.IPv4
	payload, err := wire.DecodeIPv4(pkt.Bytes(), &ip)
	if err != nil {
		return l, at
	}
	dst, ok := n.topo.LookupIP(ip.Dst)
	if !ok || dst.Kind != topology.NodeHost {
		return l, at
	}
	var tuple ecmp.FiveTuple
	flowOf(&ip, payload, &tuple)
	rt := n.route(topology.SwitchID(first.ID), tuple, topology.HostID(dst.ID))
	if rt == nil {
		return l, at
	}
	f := &pkt.Flight
	f.Via[0], f.At[0] = int32(l), int64(at)
	hops := 0
	for hops < int(rt.n) && int(ip.TTL)-hops > 1 {
		e := topology.LinkID(rt.links[hops])
		next := at + linkDelay + n.extraDelay[e]
		if next > horizon {
			break
		}
		if n.dropRate[e] > 0 {
			if !n.passes(e) {
				break
			}
			n.pend[e]++
		}
		hops++
		f.Via[hops], f.At[hops] = int32(e), int64(next)
		l, at = e, next
	}
	if hops > 0 {
		f.Hops = int32(hops)
		f.Slot = int32(len(n.flights))
		n.flights = append(n.flights, pkt)
	}
	return l, at
}

// passes reports whether one more draw on lossy link l is certain to say
// "forward" whichever of the counters not yet spoken for it gets: the
// reservations outstanding and this one must all fit in the verified run.
func (n *Net) passes(l topology.LinkID) bool {
	need := n.dropCtr[l] + uint64(n.pend[l]) + 1
	return need <= n.passUntil[l] || n.verify(l, need)
}

// verify extends link l's verified run of forwarding counters to `need` and
// a chunk beyond, so that the scan is paid once per chunk of crossings, and
// stops at the first counter that drops.
func (n *Net) verify(l topology.LinkID, need uint64) bool {
	r := n.dropRate[l]
	k := max(n.passUntil[l], n.dropCtr[l])
	for end := need + passChunk; k < end; k++ {
		if stats.DeriveUniform(n.dropSeed, uint64(l)<<40|k) < r {
			break
		}
	}
	n.passUntil[l] = k
	return need <= k
}

// passChunk is how far past the asked-for counter verify looks.
const passChunk = 64

// land applies the hops a flight's delivery stands for, as the delivery
// fires.
func (n *Net) land(pkt *wire.Buffer) {
	f := &pkt.Flight
	last := len(n.flights) - 1
	moved := n.flights[last]
	n.flights[f.Slot] = moved
	moved.Flight.Slot = f.Slot
	n.flights[last] = nil
	n.flights = n.flights[:last]
	n.settle(pkt, int(f.Hops))
	f.Hops = 0
}

// settle applies the first k folded hops of pkt's flight: what their
// switchHandle and send would have done.
func (n *Net) settle(pkt *wire.Buffer, k int) {
	if k == 0 {
		return
	}
	lowerTTL(pkt.Bytes(), k)
	for _, e := range pkt.Flight.Via[1 : k+1] {
		n.LinkForwarded[e]++
		if n.dropRate[e] > 0 {
			n.dropCtr[e]++
			n.pend[e]--
		}
	}
	n.hopsFused += int64(k)
}

// lowerTTL is k successive decrementTTLs as one patch. The one's-complement
// sum is the same either way — k single steps add k·0xFEFF to it, the one
// step 0xFFFF−k·0x0100, and the two differ by a multiple of 0xFFFF — and
// since neither sum is zero the fold lands on the same representative: the
// checksum bytes are identical, not just equivalent.
func lowerTTL(data []byte, k int) {
	m := binary.BigEndian.Uint16(data[8:])
	data[8] -= uint8(k)
	m1 := binary.BigEndian.Uint16(data[8:])
	hc := binary.BigEndian.Uint16(data[10:])
	sum := uint32(^hc) + uint32(^m) + uint32(m1)
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(data[10:], ^uint16(sum))
}

// rematerialize puts the packets in cut-through flight over link only —
// every packet in flight when only is NoLink — back on the hop-by-hop order
// at the executing event's position. Hops ordered before it have, in that
// order, already run: they are applied. A packet with hops still ahead
// gives up its reservations on them and moves to a fresh buffer delivered at
// the first such hop, which then forwards (and walks on) under whatever the
// caller is about to change; the delivery scheduled for the old buffer finds
// it marked and only frees it. Between runs nothing is in flight and this
// is a no-op.
func (n *Net) rematerialize(only topology.LinkID) {
	if len(n.flights) == 0 {
		return
	}
	now, cur := int64(n.cfg.Sched.Now()), n.cfg.Sched.Executing()
	keep := n.flights[:0]
	for _, pkt := range n.flights {
		f := &pkt.Flight
		hops := int(f.Hops)
		if only != topology.NoLink && !slices.Contains(f.Via[1:hops+1], int32(only)) {
			f.Slot = int32(len(keep))
			keep = append(keep, pkt)
			continue
		}
		reached, tie := 0, des.PosterTie(f.Serial)
		for reached < hops {
			if at := f.At[reached]; at > now || (at == now && tie > cur) {
				break
			}
			reached++
		}
		n.settle(pkt, reached)
		f.Hops = 0
		if reached == hops {
			continue // only the scheduled delivery is left, and it stands
		}
		for _, e := range f.Via[reached+1 : hops+1] {
			if n.dropRate[e] > 0 {
				n.pend[e]--
			}
		}
		np := n.pool.Get(PacketHeadroom)
		np.Append(pkt.Bytes())
		np.Flight.Tag, np.Flight.Serial = f.Tag, f.Serial
		l := topology.LinkID(f.Via[reached])
		n.cfg.Sched.PostTie(des.Time(f.At[reached]), f.Serial, n, evDeliver, int64(l), np)
		f.Hops = -1
		n.rematerialized++
	}
	clear(n.flights[len(keep):])
	n.flights = keep
}

// route is one flow→route cache entry: the egress links from switch sw to
// the destination host, in order, as NextHopLink picks them. n == 0 marks an
// empty slot.
type route struct {
	tuple ecmp.FiveTuple
	sw    topology.SwitchID
	n     int32
	links [wire.MaxFlightHops]int32
}

// The cache is direct-mapped with 2^routeCacheBits entries (≈100 KB): a
// flow's walks start at one or two switches per direction, and only the
// flows with packets in the air at once compete.
const routeCacheBits = 11

// route returns the egress links a packet of flow t takes from switch sw to
// host dst, resolving them with the router on a miss. nil means some
// switch on the way has no route, which the hop-by-hop path reports where
// it happens.
func (n *Net) route(sw topology.SwitchID, t ecmp.FiveTuple, dst topology.HostID) *route {
	if n.routes == nil {
		n.routes = make([]route, 1<<routeCacheBits)
	}
	h := (uint64(t.SrcIP)<<32 | uint64(t.DstIP)) * 0x9e3779b97f4a7c15
	h ^= (uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(t.Proto)<<24 ^ uint64(sw)) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	rt := &n.routes[(h*0x94d049bb133111eb)>>(64-routeCacheBits)]
	if rt.n > 0 && rt.sw == sw && rt.tuple == t {
		return rt
	}
	rt.n = 0
	var links [wire.MaxFlightHops]int32
	k := int32(0)
	for cur := sw; k < wire.MaxFlightHops; {
		e, err := n.cfg.Router.NextHopLink(cur, t, dst)
		if err != nil {
			return nil
		}
		links[k] = int32(e)
		k++
		to := n.topo.Links[e].To
		if to.Kind == topology.NodeHost {
			break
		}
		cur = topology.SwitchID(to.ID)
	}
	*rt = route{tuple: t, sw: sw, n: k, links: links}
	return rt
}

// Test hook: HopsFused counts the switch hops applied on landing instead of
// executed as scheduler events, so a test can see that cut-through ran.
func (n *Net) HopsFused() int64 { return n.hopsFused }

// Test hook: HopsStepped counts the switch hops that were scheduler events.
func (n *Net) HopsStepped() int64 { return n.hopsStepped }

// Test hook: Rematerialized counts the packets a mid-run change pulled out
// of a cut-through flight, so a test can see that its change hit one.
func (n *Net) Rematerialized() int64 { return n.rematerialized }
