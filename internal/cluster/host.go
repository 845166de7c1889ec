package cluster

import (
	"slices"

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
	// held is the app and wire tuples of every life of this host live at
	// some point of the agent's current epoch, those of lives since ended
	// or reused included (see hold).
	held []ecmp.FiveTuple
}

// connEvRTO is the connection's one typed DES event: a retransmission
// timer firing (arg = the generation that armed it).
const connEvRTO int32 = 1

// Conn is one outgoing reliable connection, one life from the flow's
// start (StartFlow, StartVIPFlow) to the pool. Loss recovery is a compact
// cumulative-ACK scheme: three duplicate ACKs trigger fast retransmit, a
// doubling RTO timer triggers timeout retransmit, and MaxRetries
// consecutive RTOs fail the connection (the paper's "VM panic" scenario:
// a storage connection that cannot make progress).
type Conn struct {
	// host is the sending host, nil until the life opens.
	host *Host
	// tag names this life of the Conn: its permanent connTab index + 1 in
	// the low 32 bits, its incarnation above. Data segments carry it as
	// their Flight.Tag and the receiver's ACKs echo it, so either end (and
	// the ground-truth tap) finds the life's state without hashing a tuple,
	// and a straggler from an earlier life finds none (see Cluster.conn).
	// Timer events carry it too, so a previous life's timer is ignored
	// without touching the live timer state.
	tag uint64
	// ID is the flow identifier the life's reports carry, -1 once its
	// epoch has recycled it: from then on its drops count for nothing, and
	// if it is still in flight it returns itself to the pool when it
	// closes.
	ID int64
	// drops is the life's dropArena index + 1, 0 while it lost nothing.
	drops int32
	// peer is the destination host, the end that sends the ACKs; a VIP
	// flow's is the DIP the SLB assigns when it opens.
	peer topology.HostID
	// dataSeg and ackSeg are the prebuilt headers of the two directions
	// on the wire tuple: this Conn's data segments, and the peer's ACKs
	// answering them.
	dataSeg, ackSeg wire.Segment
	// appTuple is what TCP (and so 007's agent) sees — the VIP for
	// load-balanced connections. WireTuple is what the wire carries, always
	// DIP-addressed. Both settle their source port when the life opens
	// (see Host.hold).
	appTuple  ecmp.FiveTuple
	WireTuple ecmp.FiveTuple

	total    uint32 // packets to deliver
	nextSend uint32
	acked    uint32
	// rxNext is the receiver's next expected seq on this life.
	rxNext  uint32
	dupAcks int
	retries int
	rto     des.Time
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
}

// noSample is the sentAt sentinel for Karn-suppressed slots (virtual time
// is never negative).
const noSample des.Time = -1

func newHost(cl *Cluster, id topology.HostID) *Host {
	h := &Host{
		cl: cl,
		id: id,
		ip: cl.Topo.Hosts[id].IP,
		Agent: agent.New(agent.Config{
			Topo:               cl.Topo,
			Host:               id,
			SLB:                cl.SLB,
			NewPacket:          cl.Net.NewPacket,
			SendPacket:         func(pkt *wire.Buffer) { cl.Net.Send(id, pkt) },
			Sched:              cl.Sched,
			Ct:                 cl.cfg.Ct,
			RTTThresholdMicros: cl.cfg.RTTThresholdMicros,
			OnReport:           cl.report,
		}),
	}
	cl.Net.OnHostPacket(id, h.receive)
	return h
}

// receive is the host's packet entry point: ICMP goes to the agent,
// valid TCP to the connection life its tag names, everything else
// (including 007's bad-checksum probes) is dropped exactly as a real stack
// would drop it. A segment of a life that is over — its Conn reused for
// another — is dropped too, as a real stack drops a segment for a closed
// connection. data is borrowed from the fabric's packet pool and must not
// be retained; tag is the Flight.Tag the sender set.
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
		c := h.cl.conn(tag)
		if c == nil {
			return
		}
		if tcp.Flags&wire.FlagPSH != 0 {
			c.receiveData(tcp.Seq)
		} else if tcp.Flags&wire.FlagACK != 0 {
			c.onAck(tcp.Ack)
		}
	}
}

// receiveData is the peer's side of one data segment: advance the
// cumulative counter on in-order arrival, and always acknowledge what is
// expected next (so gaps produce duplicate ACKs at the sender). The ACK
// echoes the life's tag.
func (c *Conn) receiveData(seq uint32) {
	if seq == c.rxNext {
		c.rxNext++
	}
	pkt := c.host.cl.Net.NewPacket()
	pkt.Flight.Tag = c.tag
	c.ackSeg.SerializeTo(pkt, 0, c.rxNext)
	c.host.cl.Net.Send(c.peer, pkt)
}

// newSegment prebuilds the header of the segments the stack sends on the
// wire tuple's direction.
func newSegment(s *wire.Segment, t ecmp.FiveTuple, flags uint8) {
	wire.NewSegment(s,
		wire.IPv4{TTL: 64, Protocol: wire.ProtoTCP, Src: t.SrcIP, Dst: t.DstIP},
		wire.TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: flags, Window: 64})
}

// open starts a scheduled connection life from this host at its SYN time:
// it settles the life's tuples and sends. Connection objects come from the
// cluster's pool; each reuse is a new incarnation, so segments and timer
// events of a previous life can never reach this one.
func (h *Host) open(c *Conn) {
	c.host = h
	h.hold(c)
	c.rto = h.cl.cfg.RTO
	c.ensureRing(sendWindow)
	newSegment(&c.dataSeg, c.WireTuple, wire.FlagPSH|wire.FlagACK)
	newSegment(&c.ackSeg, c.WireTuple.Reverse(), wire.FlagACK)
	c.pump()
	c.armRTO()
}

// hold settles an opening life's source port and holds its tuples for the
// agent's epoch (DESIGN.md, "The host stack"): while a life of this host
// live in the epoch holds its app or wire tuple, it steps to the next port
// of 32768–65535, wrapping. A VIP flow's DIP follows the port, and the SLB
// records the final one. Each held life blocks one port, so the walk ends.
func (h *Host) hold(c *Conn) {
	lb := h.cl.SLB
	for port := c.appTuple.SrcPort; ; port = max(port+1, 32768) {
		c.appTuple.SrcPort, c.WireTuple.SrcPort = port, port
		if dip, vip := lb.Pick(h.id, port, c.appTuple.DstIP, c.appTuple.DstPort); vip {
			c.peer, c.WireTuple.DstIP = dip, h.cl.Topo.Hosts[dip].IP
		}
		if !slices.Contains(h.held, c.appTuple) && !slices.Contains(h.held, c.WireTuple) {
			break
		}
	}
	if c.WireTuple.DstIP != c.appTuple.DstIP { // Pick found the VIP: Connect cannot fail
		_, _ = lb.Connect(h.id, c.appTuple.SrcPort, c.appTuple.DstIP, c.appTuple.DstPort)
	}
	h.held = append(h.held, c.appTuple, c.WireTuple)
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
	pkt.Flight.Tag = c.tag
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
	c.host.Agent.OnRetransmit(c.appTuple, c.ID)
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
		c.host.Agent.OnRTT(c.appTuple, c.ID, int64(c.srtt))
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
	c.host.cl.Sched.Post(at, c, connEvRTO, int64(c.tag), nil)
}

// HandleEvent receives the connection's RTO timer events from the DES.
func (c *Conn) HandleEvent(kind int32, arg int64, _ any) {
	_ = kind // connEvRTO is the only kind a Conn schedules
	if uint64(arg) != c.tag {
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
	if c.ID < 0 {
		c.host.cl.putConn(c)
	}
}
