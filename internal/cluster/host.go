package cluster

import (
	"vigil/internal/agent"
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

// Host is one emulated end host: a minimal reliable-delivery TCP-style
// stack (enough to produce genuine retransmissions under loss) that calls
// 007's host agent directly — the composition of Figure 2.
type Host struct {
	cl *Cluster
	id topology.HostID
	ip uint32

	Agent *agent.Agent

	conns map[ecmp.FiveTuple]*Conn // keyed by forward wire tuple
	// rxSlot indexes the cluster's rxNext, the receiver's next expected seq
	// per inbound wire tuple. A slot is opened when a Conn to this host
	// opens (or a segment arrives on a tuple no Conn announced) and is never
	// freed, so a tuple keeps its slot for the run: the Conn resolves it
	// once, and its data segments find it through their tag.
	rxSlot map[ecmp.FiveTuple]int32
}

// connEvRTO is the connection's one typed DES event: a retransmission
// timer firing (arg = the generation that armed it).
const connEvRTO int32 = 1

// Conn is one outgoing reliable connection. Loss recovery is a compact
// cumulative-ACK scheme: three duplicate ACKs trigger fast retransmit, a
// doubling RTO timer triggers timeout retransmit, and MaxRetries
// consecutive RTOs fail the connection (the paper's "VM panic" scenario:
// a storage connection that cannot make progress).
type Conn struct {
	host *Host
	// index is the Conn's permanent place in the cluster's connTab. Its
	// data segments carry index+1 as their Flight.Tag and the receiver's
	// ACKs echo it, so either end finds its state without hashing the
	// tuple — after checking that the tagged Conn still stands for the
	// tuple, since a straggler may outlive the life it was sent in.
	index int32
	// indexed is set while host.conns[wireTuple] is this Conn: an ACK may
	// use the tagged Conn instead of the lookup only then.
	indexed bool
	// peer is the destination host and rxSlot this direction's slot in its
	// receiver state.
	peer   *Host
	rxSlot int32
	// dataSeg and ackSeg are the prebuilt headers of the two directions:
	// this Conn's data segments, and the peer's ACKs answering them.
	dataSeg, ackSeg wire.Segment
	// wireTuple addresses the physical DIP; appTuple is what TCP (and so
	// 007's agent) sees — the VIP for load-balanced connections.
	wireTuple ecmp.FiveTuple
	appTuple  ecmp.FiveTuple

	total    uint32 // packets to deliver
	nextSend uint32
	acked    uint32
	dupAcks  int
	retries  int
	rto      des.Time
	// The retransmission timer is lazy: armRTO records the live deadline
	// and posts a DES event only when no pending timer event fires at or
	// before it — an ACK-heavy connection keeps one queue entry instead of
	// one per ACK. pending tracks this connection's outstanding timer
	// events' fire times, ascending; since DES events fire in time order,
	// the front is always the next to arrive. The invariant "some pending
	// fire time ≤ rtoDeadline while armed" means a fire lands at exactly
	// the live deadline — the same virtual time an eager per-arm event
	// would have used — including when the deadline moves earlier (RTO
	// doubled by a timeout, then reset by an ACK).
	rtoDeadline des.Time
	pending     []des.Time
	// incarnation distinguishes pooled reuses: timer events carry it, so a
	// straggler event from a previous life of this object is ignored
	// without touching the live timer state.
	incarnation uint64

	// sentAt rings first-transmission times for RTT sampling, indexed by
	// seq & sentMask; noSample marks entries suppressed under Karn's rule
	// (retransmitted segments are never sampled). The in-flight window
	// never exceeds the ring size, so slots are unambiguous.
	sentAt   []des.Time
	sentMask uint32
	srtt     des.Time

	Retransmits int
	Done        bool
	Failed      bool
	// orphan marks a connection whose flow record was already recycled
	// (EphemeralFlows): it returns itself to the pool when it closes.
	orphan bool
}

// noSample is the sentAt sentinel for Karn-suppressed slots (virtual time
// is never negative).
const noSample des.Time = -1

func newHost(cl *Cluster, id topology.HostID) *Host {
	h := &Host{
		cl:     cl,
		id:     id,
		ip:     cl.Topo.Hosts[id].IP,
		conns:  make(map[ecmp.FiveTuple]*Conn),
		rxSlot: make(map[ecmp.FiveTuple]int32),
		Agent: agent.New(agent.Config{
			Topo:               cl.Topo,
			Host:               id,
			SLB:                cl.SLB,
			NewPacket:          cl.Net.NewPacket,
			SendPacket:         func(pkt *wire.Buffer) { cl.Net.Send(id, pkt) },
			Sched:              cl.Sched,
			EventKey:           keyClassPath | uint64(id),
			Ct:                 cl.cfg.Ct,
			RTTThresholdMicros: cl.cfg.RTTThresholdMicros,
			OnReport:           cl.report,
			FlowID:             cl.flowID,
		}),
	}
	cl.Net.OnHostPacket(id, h.receive)
	return h
}

// receive is the host's packet entry point: ICMP goes to the agent,
// valid TCP to the stack, everything else (including 007's bad-checksum
// probes) is dropped exactly as a real stack would drop it. data is
// borrowed from the fabric's packet pool and must not be retained; tag is
// the Flight.Tag the sender set.
func (h *Host) receive(data []byte, tag uint64) {
	var ip wire.IPv4
	payload, err := wire.DecodeIPv4(data, &ip)
	if err != nil {
		return
	}
	switch ip.Protocol {
	case wire.ProtoICMP:
		var ic wire.ICMP
		if wire.DecodeICMP(payload, &ic) == nil {
			h.Agent.HandleICMP(ip.Src, &ic)
		}
	case wire.ProtoTCP:
		if !wire.VerifyTCPChecksum(payload, ip.Src, ip.Dst) {
			return // bad checksum: probes and corruption die here
		}
		var tcp wire.TCP
		if _, err := wire.DecodeTCP(payload, &tcp); err != nil {
			return
		}
		tuple := ecmp.FiveTuple{
			SrcIP: ip.Src, DstIP: ip.Dst,
			SrcPort: tcp.SrcPort, DstPort: tcp.DstPort, Proto: ecmp.ProtoTCP,
		}
		var c *Conn
		if tag-1 < uint64(len(h.cl.connTab)) {
			c = h.cl.connTab[tag-1]
		}
		if tcp.Flags&wire.FlagPSH != 0 {
			h.receiveData(tuple, tcp.Seq, c, tag)
		} else if tcp.Flags&wire.FlagACK != 0 {
			rev := tuple.Reverse()
			if c == nil || !c.indexed || c.host != h || c.wireTuple != rev {
				c = h.conns[rev]
			}
			if c != nil {
				c.onAck(tcp.Ack)
			}
		}
	}
}

// receiveData handles one data segment: advance the cumulative counter on
// in-order arrival, and always acknowledge what is expected next (so gaps
// produce duplicate ACKs at the sender). c is the Conn the segment's tag
// names, if any; the ACK echoes the tag.
func (h *Host) receiveData(tuple ecmp.FiveTuple, seq uint32, c *Conn, tag uint64) {
	var slot int32
	if c != nil && c.peer == h && c.wireTuple == tuple {
		slot = c.rxSlot
	} else {
		c = nil
		slot = h.rxSlotOf(tuple)
	}
	next := h.cl.rxNext[slot]
	if seq == next {
		next++
		h.cl.rxNext[slot] = next
	}
	pkt := h.cl.Net.NewPacket()
	pkt.Flight.Tag = tag
	if c != nil {
		c.ackSeg.SerializeTo(pkt, 0, next)
	} else {
		var ack wire.Segment
		newSegment(&ack, tuple.Reverse(), wire.FlagACK)
		ack.SerializeTo(pkt, 0, next)
	}
	h.cl.Net.Send(h.id, pkt)
}

// rxSlotOf returns the receiver slot of an inbound wire tuple, opening one
// on first sight.
func (h *Host) rxSlotOf(t ecmp.FiveTuple) int32 {
	slot, ok := h.rxSlot[t]
	if !ok {
		slot = int32(len(h.cl.rxNext))
		h.rxSlot[t] = slot
		h.cl.rxNext = append(h.cl.rxNext, 0)
	}
	return slot
}

// newSegment prebuilds the header of the segments the stack sends on the
// wire tuple's direction.
func newSegment(s *wire.Segment, t ecmp.FiveTuple, flags uint8) {
	wire.NewSegment(s,
		wire.IPv4{TTL: 64, Protocol: wire.ProtoTCP, Src: t.SrcIP, Dst: t.DstIP},
		wire.TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: flags, Window: 64})
}

// openConn starts a connection sending total packets to the wire tuple on
// the peer host. Connection objects come from the cluster's pool; each
// reuse is a new incarnation, so stale timer events from a previous life
// can never fire.
func (h *Host) openConn(peer *Host, wireTuple, appTuple ecmp.FiveTuple, total int) *Conn {
	c := h.cl.getConn()
	c.host = h
	c.peer = peer
	c.rxSlot = peer.rxSlotOf(wireTuple)
	c.wireTuple = wireTuple
	c.appTuple = appTuple
	c.total = uint32(total)
	c.rto = h.cl.cfg.RTO
	c.ensureRing(sendWindow)
	newSegment(&c.dataSeg, wireTuple, wire.FlagPSH|wire.FlagACK)
	newSegment(&c.ackSeg, wireTuple.Reverse(), wire.FlagACK)
	if old := h.conns[wireTuple]; old != nil {
		old.indexed = false // displaced: its ACKs now find c, as the lookup does
	}
	h.conns[wireTuple] = c
	c.indexed = true
	c.pump()
	c.armRTO()
	return c
}

// ensureRing sizes the sentAt ring to the smallest power of two that holds
// the send window, reusing prior capacity across pooled incarnations.
func (c *Conn) ensureRing(window int) {
	size := 1
	for size < window {
		size <<= 1
	}
	if cap(c.sentAt) >= size {
		c.sentAt = c.sentAt[:size]
	} else {
		c.sentAt = make([]des.Time, size)
	}
	c.sentMask = uint32(size - 1)
}

// sendData hands one data segment, tagged with the Conn, to the fabric
// (which owns the packet from then on).
func (c *Conn) sendData(seq uint32) {
	pkt := c.host.cl.Net.NewPacket()
	pkt.Flight.Tag = uint64(c.index) + 1
	c.dataSeg.SerializeTo(pkt, seq, 0)
	c.host.cl.Net.Send(c.host.id, pkt)
}

// pump sends new data while the window allows.
func (c *Conn) pump() {
	for c.nextSend < c.total && c.nextSend < c.acked+sendWindow {
		c.sentAt[c.nextSend&c.sentMask] = c.host.cl.Sched.Now()
		c.sendData(c.nextSend)
		c.nextSend++
	}
}

func (c *Conn) onAck(ackN uint32) {
	if c.Done || c.Failed {
		return
	}
	switch {
	case ackN > c.acked:
		c.sampleRTT(ackN)
		c.acked = ackN
		c.dupAcks = 0
		c.retries = 0
		c.rto = c.host.cl.cfg.RTO
		if c.acked >= c.total {
			c.close(false)
			return
		}
		c.pump()
		c.armRTO()
	case ackN == c.acked:
		c.dupAcks++
		if c.dupAcks >= 3 {
			c.dupAcks = 0
			c.retransmit()
		}
	}
}

// retransmit resends the lowest unacknowledged segment and tells the
// agent, which is what wakes 007.
func (c *Conn) retransmit() {
	c.Retransmits++
	c.sentAt[c.acked&c.sentMask] = noSample // Karn: never RTT-sample a retransmission
	c.host.Agent.OnRetransmit(c.appTuple)
	c.sendData(c.acked)
	c.armRTO()
}

// sampleRTT folds the newly acknowledged segment's round trip into the
// smoothed estimate (RFC 6298's 7/8-1/8 EWMA) and, when §9.2's latency
// diagnosis is on, hands it to the agent to threshold. The
// cumulative ACK only ever covers sent segments, so the ring slot for
// ackN-1 is either that segment's first-transmission time or the Karn
// sentinel.
func (c *Conn) sampleRTT(ackN uint32) {
	at := c.sentAt[(ackN-1)&c.sentMask]
	if at == noSample {
		return
	}
	sample := c.host.cl.Sched.Now() - at
	if c.srtt == 0 {
		c.srtt = sample
	} else {
		c.srtt = (7*c.srtt + sample) / 8
	}
	if c.host.cl.cfg.RTTThresholdMicros > 0 {
		c.host.Agent.OnRTT(c.appTuple, int64(c.srtt))
	}
}

func (c *Conn) armRTO() {
	c.rtoDeadline = c.host.cl.Sched.Now() + c.rto
	if len(c.pending) == 0 || c.rtoDeadline < c.pending[0] {
		c.postTimer(c.rtoDeadline)
	}
}

// postTimer schedules a timer event at `at` and records it at the front
// of pending (callers only post times strictly before the current front,
// so the ascending order is maintained by prepending).
func (c *Conn) postTimer(at des.Time) {
	c.pending = append(c.pending, 0)
	copy(c.pending[1:], c.pending)
	c.pending[0] = at
	c.host.cl.Sched.PostKeyed(at, keyClassConn|uint64(c.host.id), c, connEvRTO, int64(c.incarnation), nil)
}

// HandleEvent receives the connection's RTO timer events from the DES.
func (c *Conn) HandleEvent(kind int32, arg int64, _ any) {
	_ = kind // connEvRTO is the only kind a Conn schedules
	if uint64(arg) != c.incarnation {
		return // a previous pooled life's timer
	}
	// This fire is pending's front: this incarnation's events fire in
	// posting-time order.
	copy(c.pending, c.pending[1:])
	c.pending = c.pending[:len(c.pending)-1]
	if c.Done || c.Failed {
		return
	}
	if now := c.host.cl.Sched.Now(); now < c.rtoDeadline {
		// Superseded by a later re-arm: make sure something still fires at
		// the live deadline, then stand down.
		if len(c.pending) == 0 || c.rtoDeadline < c.pending[0] {
			c.postTimer(c.rtoDeadline)
		}
		return
	}
	c.onRTO()
}

func (c *Conn) onRTO() {
	c.retries++
	if c.retries > c.host.cl.cfg.MaxRetries {
		c.close(true)
		return
	}
	if c.rto < 4*des.Second {
		c.rto *= 2
	}
	c.retransmit()
}

func (c *Conn) close(failed bool) {
	c.Done = !failed
	c.Failed = failed
	// The tuple's current Conn goes, whichever it is: c, or a Conn that
	// displaced it.
	if cur := c.host.conns[c.wireTuple]; cur != nil {
		cur.indexed = false
	}
	delete(c.host.conns, c.wireTuple)
	if c.orphan {
		c.host.cl.putConn(c)
	}
}
