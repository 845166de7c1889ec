// Package wire implements the packet formats the emulated fabric carries:
// IPv4, TCP and ICMP. It follows the gopacket conventions — layers
// serialize by prepending onto a buffer (payload first, headers outward)
// and decode into preallocated layer structs — but is self-contained on the
// standard library.
//
// 007's path discovery (§4.2) depends on three wire-level details all
// implemented here: traceroute probes carry the traced flow's exact
// five-tuple so ECMP hashes them onto the data path; the probe's TTL is
// echoed in the IP ID field so concurrent traceroutes can be disambiguated
// when the expired header comes back inside an ICMP time-exceeded message;
// and probes carry a deliberately bad TCP checksum so the destination's
// stack drops them without disturbing the live connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header sizes in bytes.
const (
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	ICMPHeaderLen = 8
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// ICMP types/codes used by the emulation.
const (
	ICMPTypeTimeExceeded uint8 = 11
	ICMPCodeTTLExpired   uint8 = 0
)

// IPv4 is a 20-byte IPv4 header (no options).
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length incl. header; filled by SerializeTo
	ID       uint16 // 007 encodes the probe TTL here
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by SerializeTo, verified by Decode
	Src, Dst uint32
}

// TCP is a 20-byte TCP header (no options).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	// BadChecksum asks SerializeTo to emit a deliberately wrong checksum,
	// 007's trick to keep probes from reaching the peer's TCP state machine.
	BadChecksum bool
}

// ICMP is an ICMP header plus body. For time-exceeded messages the body is
// the expired packet's IP header and the first 8 payload bytes (RFC 792),
// which is exactly what lets 007 recover the probe's five-tuple and IP ID.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	Body       []byte
}

// Buffer accumulates a packet during serialization. Layers prepend, so a
// packet is built payload-first: buf.Append(payload); tcp.SerializeTo(buf);
// ip.SerializeTo(buf).
type Buffer struct {
	data  []byte
	start int
	// Flight is scratch for the sender and whoever carries the packet (the
	// fabric); wire never reads it. Pool.Get hands every buffer out with it
	// zeroed.
	Flight Flight
}

// MaxFlightHops bounds the forwarding hops a carrier may fold into one
// Flight: one more than the five switches of the longest Clos route.
const MaxFlightHops = 6

// Flight is the per-packet state that travels beside the bytes: the
// sender's tag, the packet's place in the carrier's event order and, while
// the packet is being carried over several links as one scheduled delivery,
// the hops that delivery stands for. Links and times are the carrier's own
// identifiers, stored raw so that wire stays a leaf package.
type Flight struct {
	// Tag is the sender's word: the carrier copies it and never reads it.
	Tag uint64
	// Serial orders the packet among simultaneous deliveries on one link.
	Serial uint64
	// Hops counts the folded hops: the packet entered link Via[0], reaches
	// the switch at its far end at At[0], and for i < Hops that i-th switch
	// forwards it onto Via[i+1], arriving at At[i+1] — the scheduled
	// delivery when i+1 == Hops. A negative count marks a buffer whose
	// packet was moved to another buffer: its pending delivery carries
	// nothing.
	Hops int32
	// Slot is the flight's index in the carrier's in-flight list.
	Slot int32
	Via  [MaxFlightHops + 1]int32
	At   [MaxFlightHops + 1]int64
}

// NewBuffer returns a Buffer with room to prepend headroom bytes.
func NewBuffer(headroom int) *Buffer {
	return &Buffer{data: make([]byte, headroom), start: headroom}
}

// Reset empties the buffer in place, leaving room to prepend headroom
// bytes. Capacity is retained, so a reset buffer serializes the next
// packet without allocating.
func (b *Buffer) Reset(headroom int) {
	if cap(b.data) < headroom {
		b.data = make([]byte, headroom)
	}
	b.data = b.data[:headroom]
	b.start = headroom
}

// Pool is a free list of packet Buffers. The emulation is single-threaded
// on virtual time, so the pool is deliberately lock-free and NOT safe for
// concurrent use. Ownership is explicit: Get hands the caller an empty
// buffer, and exactly one component must Put it back once the packet dies
// (see the fabric's release rules).
type Pool struct {
	free []*Buffer
}

// Get returns an empty buffer with the given headroom, reusing a released
// one when available.
func (p *Pool) Get(headroom int) *Buffer {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		b.Reset(headroom)
		b.Flight = Flight{}
		return b
	}
	return NewBuffer(headroom)
}

// Put releases a buffer back to the pool. The caller must not touch b (or
// any slice previously obtained from it) afterwards.
func (p *Pool) Put(b *Buffer) {
	p.free = append(p.free, b)
}

// Bytes returns the serialized packet so far.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Prepend makes n bytes of space before the current content.
func (b *Buffer) Prepend(n int) []byte {
	if b.start < n {
		content := b.data[b.start:]
		grown := make([]byte, n+64+len(content))
		copy(grown[n+64:], content)
		b.data = grown
		b.start = n + 64
	}
	b.start -= n
	return b.data[b.start : b.start+n]
}

// Append adds payload bytes after the current content.
func (b *Buffer) Append(p []byte) {
	b.data = append(b.data, p...)
}

// SerializeTo prepends the IPv4 header, fixing Length and Checksum.
func (ip *IPv4) SerializeTo(b *Buffer) {
	total := len(b.Bytes()) + IPv4HeaderLen
	h := b.Prepend(IPv4HeaderLen)
	h[0] = 0x45 // version 4, IHL 5
	h[1] = ip.TOS
	binary.BigEndian.PutUint16(h[2:], uint16(total))
	binary.BigEndian.PutUint16(h[4:], ip.ID)
	h[6], h[7] = 0, 0 // flags+fragment offset
	h[8] = ip.TTL
	h[9] = ip.Protocol
	h[10], h[11] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint32(h[12:], ip.Src)
	binary.BigEndian.PutUint32(h[16:], ip.Dst)
	ip.Length = uint16(total)
	ip.Checksum = Checksum(h)
	binary.BigEndian.PutUint16(h[10:], ip.Checksum)
}

// SerializeTo prepends the TCP header, computing the checksum over the
// pseudo-header, header and current buffer contents (the payload). ip
// supplies the pseudo-header addresses.
func (t *TCP) SerializeTo(b *Buffer, ip *IPv4) {
	payloadLen := len(b.Bytes())
	h := b.Prepend(TCPHeaderLen)
	binary.BigEndian.PutUint16(h[0:], t.SrcPort)
	binary.BigEndian.PutUint16(h[2:], t.DstPort)
	binary.BigEndian.PutUint32(h[4:], t.Seq)
	binary.BigEndian.PutUint32(h[8:], t.Ack)
	h[12] = 5 << 4 // data offset: 5 words
	h[13] = t.Flags
	binary.BigEndian.PutUint16(h[14:], t.Window)
	h[16], h[17] = 0, 0 // checksum placeholder
	h[18], h[19] = 0, 0 // urgent
	sum := tcpChecksum(h[:TCPHeaderLen+payloadLen], ip.Src, ip.Dst)
	if t.BadChecksum {
		sum ^= 0x5555
		if sum == 0 {
			sum = 0x5555
		}
	}
	t.Checksum = sum
	binary.BigEndian.PutUint16(h[16:], sum)
}

// Segment is a prebuilt header-only TCP/IPv4 packet: the 40 bytes
// TCP.SerializeTo and IPv4.SerializeTo produce for an empty payload with
// Seq and Ack zero, and the TCP checksum's unfolded sum over the
// pseudo-header and that header minus its checksum word. The segments of
// one connection direction differ only in Seq and Ack, so SerializeTo
// patches those two words and finishes the checksum instead of rebuilding
// the header.
type Segment struct {
	hdr [IPv4HeaderLen + TCPHeaderLen]byte
	sum uint64
}

// NewSegment builds s in place from the headers ip and tcp serialize for an
// empty payload. tcp's Seq, Ack, Checksum and BadChecksum are ignored: a
// prebuilt segment always carries a valid checksum.
func NewSegment(s *Segment, ip IPv4, tcp TCP) {
	tcp.Seq, tcp.Ack, tcp.BadChecksum = 0, 0, false
	b := Buffer{data: s.hdr[:], start: len(s.hdr)}
	tcp.SerializeTo(&b, &ip)
	ip.SerializeTo(&b)
	t := s.hdr[IPv4HeaderLen:]
	s.sum = sumWords(sumWords(pseudoSum(ip.Src, ip.Dst, TCPHeaderLen), t[:16]), t[18:])
}

// SerializeTo prepends the segment with the given Seq and Ack onto b, which
// must be empty. The bytes are those of a full serialization: the unfolded
// checksum sum is the same number, since sumWords reads Seq and Ack as the
// 32-bit words they are added as here.
func (s *Segment) SerializeTo(b *Buffer, seq, ack uint32) {
	h := b.Prepend(len(s.hdr))
	copy(h, s.hdr[:])
	t := h[IPv4HeaderLen:]
	binary.BigEndian.PutUint32(t[4:], seq)
	binary.BigEndian.PutUint32(t[8:], ack)
	binary.BigEndian.PutUint16(t[16:], ^fold(s.sum+uint64(seq)+uint64(ack)))
}

// SerializeTo prepends Body and the 8-byte ICMP header, checksumming the
// header and everything after it in b. A reply whose body the caller
// already placed in b leaves Body empty: that is the allocation-free path
// for replies copied straight from the packet being answered (see fabric's
// time-exceeded generation).
func (ic *ICMP) SerializeTo(b *Buffer) {
	copy(b.Prepend(len(ic.Body)), ic.Body)
	h := b.Prepend(ICMPHeaderLen)
	h[0] = ic.Type
	h[1] = ic.Code
	h[2], h[3] = 0, 0
	h[4], h[5], h[6], h[7] = 0, 0, 0, 0 // unused
	ic.Checksum = Checksum(b.Bytes())
	binary.BigEndian.PutUint16(h[2:], ic.Checksum)
}

// Checksum computes the RFC 1071 internet checksum of data.
func Checksum(data []byte) uint16 {
	return ^fold(sumWords(0, data))
}

// sumWords accumulates data's big-endian 16-bit words onto acc without
// folding: a uint64 holds the carries of any realistic packet, and reading
// 32 bits per step (two words: the high half collects the even words, the
// low half the odd ones) halves the loads on the per-hop header and
// segment checksums.
func sumWords(acc uint64, data []byte) uint64 {
	for len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	return acc
}

// fold reduces an unfolded word sum to the 16-bit one's-complement total.
func fold(acc uint64) uint16 {
	// 32-bit reads leave even words in the high halves: fold 64→32, then
	// carry-fold to 16 bits (the loop runs at most three times).
	sum := acc>>32 + acc&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

func tcpChecksum(segment []byte, src, dst uint32) uint16 {
	return ^fold(sumWords(pseudoSum(src, dst, len(segment)), segment))
}

// pseudoSum is the unfolded sum of the TCP pseudo-header.
func pseudoSum(src, dst uint32, length int) uint64 {
	return uint64(src>>16) + uint64(src&0xffff) +
		uint64(dst>>16) + uint64(dst&0xffff) +
		uint64(ProtoTCP) + uint64(length)
}

// Decoding errors.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadVersion  = errors.New("wire: not an IPv4 packet")
	ErrBadChecksum = errors.New("wire: header checksum mismatch")
)

// DecodeIPv4 parses an IPv4 header from data, returning the payload.
// The header checksum is verified.
func DecodeIPv4(data []byte, ip *IPv4) (payload []byte, err error) {
	if len(data) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return nil, ErrTruncated
	}
	if Checksum(data[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:])
	ip.ID = binary.BigEndian.Uint16(data[4:])
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:])
	ip.Src = binary.BigEndian.Uint32(data[12:])
	ip.Dst = binary.BigEndian.Uint32(data[16:])
	end := int(ip.Length)
	if end < ihl || end > len(data) {
		end = len(data)
	}
	return data[ihl:end], nil
}

// DecodeTCP parses a TCP header from data, returning the payload.
// Checksum verification is the caller's concern (see VerifyTCPChecksum):
// hosts verify, switches do not.
func DecodeTCP(data []byte, t *TCP) (payload []byte, err error) {
	if len(data) < TCPHeaderLen {
		return nil, ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	off := int(data[12]>>4) * 4
	if off < TCPHeaderLen || len(data) < off {
		return nil, ErrTruncated
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:])
	t.Checksum = binary.BigEndian.Uint16(data[16:])
	return data[off:], nil
}

// VerifyTCPChecksum reports whether the TCP segment's checksum is valid
// under the given pseudo-header addresses.
func VerifyTCPChecksum(segment []byte, src, dst uint32) bool {
	return tcpChecksum(segment, src, dst) == 0
}

// DecodeICMP parses an ICMP message from data.
func DecodeICMP(data []byte, ic *ICMP) error {
	if len(data) < ICMPHeaderLen {
		return ErrTruncated
	}
	if Checksum(data) != 0 {
		return ErrBadChecksum
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:])
	ic.Body = data[ICMPHeaderLen:]
	return nil
}

// ExpiredProbe extracts the original probe's identity from a time-exceeded
// body: the embedded IP header and, when the embedded packet was TCP, its
// source/destination ports (the first 4 payload bytes). It returns the
// embedded IP header, the ports, and whether ports were present.
func ExpiredProbe(body []byte) (ip IPv4, srcPort, dstPort uint16, ok bool, err error) {
	if len(body) < IPv4HeaderLen {
		return IPv4{}, 0, 0, false, ErrTruncated
	}
	// The embedded header's checksum was valid when the packet expired.
	if _, err := DecodeIPv4(body[:IPv4HeaderLen], &ip); err != nil {
		return IPv4{}, 0, 0, false, err
	}
	if ip.Protocol == ProtoTCP && len(body) >= IPv4HeaderLen+4 {
		srcPort = binary.BigEndian.Uint16(body[IPv4HeaderLen:])
		dstPort = binary.BigEndian.Uint16(body[IPv4HeaderLen+2:])
		return ip, srcPort, dstPort, true, nil
	}
	return ip, 0, 0, false, nil
}

// String renders the header compactly for logs.
func (ip *IPv4) String() string {
	return fmt.Sprintf("IPv4{%d.%d.%d.%d→%d.%d.%d.%d ttl=%d id=%d proto=%d}",
		byte(ip.Src>>24), byte(ip.Src>>16), byte(ip.Src>>8), byte(ip.Src),
		byte(ip.Dst>>24), byte(ip.Dst>>16), byte(ip.Dst>>8), byte(ip.Dst),
		ip.TTL, ip.ID, ip.Protocol)
}
