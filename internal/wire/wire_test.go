package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func buildTCPPacket(ip IPv4, tcp TCP, payload []byte) []byte {
	buf := NewBuffer(64)
	buf.Append(payload)
	tcp.SerializeTo(buf, &ip)
	ip.SerializeTo(buf)
	out := make([]byte, len(buf.Bytes()))
	copy(out, buf.Bytes())
	return out
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, src, dst uint32, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		in := IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: ProtoTCP, Src: src, Dst: dst}
		buf := NewBuffer(32)
		buf.Append(payload)
		in.SerializeTo(buf)
		var out IPv4
		got, err := DecodeIPv4(buf.Bytes(), &out)
		if err != nil {
			return false
		}
		return out.TOS == tos && out.ID == id && out.TTL == ttl &&
			out.Src == src && out.Dst == dst && out.Protocol == ProtoTCP &&
			bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, win uint16, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: 0x0a000001, Dst: 0x0a000002}
		in := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: FlagACK, Window: win}
		pkt := buildTCPPacket(ip, in, payload)
		var gotIP IPv4
		seg, err := DecodeIPv4(pkt, &gotIP)
		if err != nil {
			return false
		}
		var out TCP
		got, err := DecodeTCP(seg, &out)
		if err != nil {
			return false
		}
		return out.SrcPort == sp && out.DstPort == dp && out.Seq == seq &&
			out.Ack == ack && out.Window == win && out.Flags == FlagACK &&
			bytes.Equal(got, payload) &&
			VerifyTCPChecksum(seg, ip.Src, ip.Dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadChecksumProbe(t *testing.T) {
	ip := IPv4{TTL: 5, Protocol: ProtoTCP, Src: 1, Dst: 2}
	probe := TCP{SrcPort: 31337, DstPort: 443, BadChecksum: true}
	pkt := buildTCPPacket(ip, probe, nil)
	var gotIP IPv4
	seg, err := DecodeIPv4(pkt, &gotIP)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyTCPChecksum(seg, ip.Src, ip.Dst) {
		t.Fatal("deliberately bad checksum verified as good")
	}
	// The header itself still decodes: switches forward it fine.
	var out TCP
	if _, err := DecodeTCP(seg, &out); err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != 31337 || out.DstPort != 443 {
		t.Fatal("probe ports corrupted")
	}
}

func TestIPChecksumDetectsCorruption(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: 10, Dst: 20, ID: 7}
	buf := NewBuffer(32)
	ip.SerializeTo(buf)
	pkt := make([]byte, len(buf.Bytes()))
	copy(pkt, buf.Bytes())
	pkt[8] ^= 0xff // flip the TTL without fixing the checksum
	var out IPv4
	if _, err := DecodeIPv4(pkt, &out); err != ErrBadChecksum {
		t.Fatalf("corrupted header decoded with err=%v, want ErrBadChecksum", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var ip IPv4
	if _, err := DecodeIPv4(nil, &ip); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeIPv4(make([]byte, 10), &ip); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	v6 := make([]byte, 40)
	v6[0] = 0x60
	if _, err := DecodeIPv4(v6, &ip); err != ErrBadVersion {
		t.Fatalf("v6: %v", err)
	}
	var tc TCP
	if _, err := DecodeTCP(make([]byte, 8), &tc); err != ErrTruncated {
		t.Fatalf("short tcp: %v", err)
	}
	var ic ICMP
	if err := DecodeICMP(make([]byte, 4), &ic); err != ErrTruncated {
		t.Fatalf("short icmp: %v", err)
	}
}

func TestTimeExceededRoundTrip(t *testing.T) {
	// Build a probe the way the path discovery agent does: TTL in IP ID.
	ip := IPv4{TTL: 3, ID: 3, Protocol: ProtoTCP, Src: 0x0a010203, Dst: 0x0a040506}
	probe := TCP{SrcPort: 50000, DstPort: 443, BadChecksum: true}
	pkt := buildTCPPacket(ip, probe, nil)

	// Switch expires it and answers with the IP header and the first 8
	// payload bytes.
	reply := ICMP{Type: ICMPTypeTimeExceeded, Code: ICMPCodeTTLExpired, Body: pkt[:IPv4HeaderLen+8]}
	buf := NewBuffer(64)
	reply.SerializeTo(buf)
	replyIP := IPv4{TTL: 64, Protocol: ProtoICMP, Src: 0x0ac80001, Dst: ip.Src}
	replyIP.SerializeTo(buf)

	// Host decodes the reply and recovers the probe identity.
	var outIP IPv4
	icmpData, err := DecodeIPv4(buf.Bytes(), &outIP)
	if err != nil {
		t.Fatal(err)
	}
	var ic ICMP
	if err := DecodeICMP(icmpData, &ic); err != nil {
		t.Fatal(err)
	}
	if ic.Type != ICMPTypeTimeExceeded || ic.Code != ICMPCodeTTLExpired {
		t.Fatalf("wrong ICMP type/code: %d/%d", ic.Type, ic.Code)
	}
	embedded, sp, dp, hasPorts, err := ExpiredProbe(ic.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPorts || sp != 50000 || dp != 443 {
		t.Fatalf("ports not recovered: %d→%d (ok=%v)", sp, dp, hasPorts)
	}
	if embedded.ID != 3 {
		t.Fatalf("IP ID (encoded TTL) = %d, want 3", embedded.ID)
	}
	if embedded.Src != ip.Src || embedded.Dst != ip.Dst {
		t.Fatal("embedded addresses corrupted")
	}
}

func TestTimeExceededTruncatedBody(t *testing.T) {
	if _, _, _, _, err := ExpiredProbe([]byte{0x45, 0x00}); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

// ICMP messages with odd and even body lengths must both verify after
// serialization — the checksum padding rule is easy to get wrong.
func TestICMPChecksumOddEvenBodies(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) > 600 {
			body = body[:600]
		}
		ic := ICMP{Type: ICMPTypeTimeExceeded, Code: 0, Body: body}
		buf := NewBuffer(16)
		ic.SerializeTo(buf)
		var out ICMP
		if err := DecodeICMP(buf.Bytes(), &out); err != nil {
			return false
		}
		return out.Type == ic.Type && bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPrependGrowth(t *testing.T) {
	buf := NewBuffer(0) // no headroom: every prepend must grow
	buf.Append([]byte{9, 9})
	h := buf.Prepend(4)
	copy(h, []byte{1, 2, 3, 4})
	h2 := buf.Prepend(3)
	copy(h2, []byte{5, 6, 7})
	want := []byte{5, 6, 7, 1, 2, 3, 4, 9, 9}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("buffer = %v, want %v", buf.Bytes(), want)
	}
}

func TestIPv4String(t *testing.T) {
	ip := IPv4{Src: 0x0a000102, Dst: 0x0a000203, TTL: 4, ID: 9, Protocol: 6}
	if got := ip.String(); got != "IPv4{10.0.1.2→10.0.2.3 ttl=4 id=9 proto=6}" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkSerializeTCPPacket(b *testing.B) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: 1, Dst: 2}
	tcp := TCP{SrcPort: 1000, DstPort: 443, Seq: 1}
	payload := make([]byte, 512)
	buf := NewBuffer(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*buf = Buffer{data: buf.data[:64], start: 64}
		buf.Append(payload)
		tcp.SerializeTo(buf, &ip)
		ip.SerializeTo(buf)
	}
}

func BenchmarkDecodeTCPPacket(b *testing.B) {
	pkt := buildTCPPacket(
		IPv4{TTL: 64, Protocol: ProtoTCP, Src: 1, Dst: 2},
		TCP{SrcPort: 1000, DstPort: 443}, make([]byte, 512))
	var ip IPv4
	var tcp TCP
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := DecodeIPv4(pkt, &ip)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeTCP(seg, &tcp); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzSegmentMatchesSerialize holds the prebuilt header to the generic
// path: for any addresses, ports, flags, window, Seq and Ack, the bytes
// Segment.SerializeTo writes are those TCP.SerializeTo and IPv4.SerializeTo
// write, and they decode and verify. The checked-in corpus has Seq and Ack
// at 0 and 0xffffffff and a header whose sum folds to 0xffff (checksum
// 0x0000).
func FuzzSegmentMatchesSerialize(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a010203), uint16(40000), uint16(443), FlagPSH|FlagACK, uint16(64), uint32(7), uint32(0))
	f.Fuzz(func(t *testing.T, src, dst uint32, srcPort, dstPort uint16, flags uint8, window uint16, seq, ack uint32) {
		ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
		tcp := TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: window}
		want := buildTCPPacket(ip, tcp, nil)
		var seg Segment
		NewSegment(&seg, ip, tcp)
		buf := NewBuffer(64)
		seg.SerializeTo(buf, seq, ack)
		got := buf.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %x, generic serialize %x", got, want)
		}
		var gotIP IPv4
		payload, err := DecodeIPv4(got, &gotIP)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyTCPChecksum(payload, src, dst) {
			t.Fatalf("segment %x does not verify", got)
		}
		var gotTCP TCP
		if _, err := DecodeTCP(payload, &gotTCP); err != nil {
			t.Fatal(err)
		}
		if gotTCP.Seq != seq || gotTCP.Ack != ack || gotTCP.Flags != flags || gotTCP.Window != window {
			t.Fatalf("decoded %+v", gotTCP)
		}
	})
}

// A connection builds its segments' headers once and then sends without
// allocating.
func TestSegmentAllocFree(t *testing.T) {
	buf := NewBuffer(64)
	var seg Segment
	n := uint32(0)
	if avg := testing.AllocsPerRun(100, func() {
		NewSegment(&seg, IPv4{TTL: 64, Protocol: ProtoTCP, Src: 1, Dst: n},
			TCP{SrcPort: 40000, DstPort: 443, Flags: FlagACK, Window: 64})
		buf.Reset(64)
		seg.SerializeTo(buf, n, n+1)
		n++
	}); avg > 0 {
		t.Fatalf("NewSegment + SerializeTo allocate %.1f times", avg)
	}
}

func BenchmarkSegment(b *testing.B) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: 0x0a000001, Dst: 0x0a010203}
	tcp := TCP{SrcPort: 40000, DstPort: 443, Flags: FlagPSH | FlagACK, Window: 64}
	buf := NewBuffer(64)
	b.Run("prebuilt", func(b *testing.B) {
		var seg Segment
		NewSegment(&seg, ip, tcp)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset(64)
			seg.SerializeTo(buf, uint32(i), 0)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset(64)
			tcp.Seq = uint32(i)
			tcp.SerializeTo(buf, &ip)
			ip.SerializeTo(buf)
		}
	})
}
