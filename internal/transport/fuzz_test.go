package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"

	"vigil/internal/topology"
	"vigil/internal/vote"
)

// idleListener satisfies Serve for a server whose connections the test
// hands to handle itself.
type idleListener struct{ closed chan struct{} }

func (l idleListener) Accept() (net.Conn, error) { <-l.closed; return nil, net.ErrClosed }
func (l idleListener) Close() error              { close(l.closed); return nil }
func (l idleListener) Addr() net.Addr            { return &net.TCPAddr{} }

// codecs pairs every payload-bearing frame type with its decoder and
// encoder, for the round-trip and truncation properties.
var codecs = map[byte]struct {
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	TypeHello: {func(b []byte) (any, error) { return DecodeHello(b) },
		func(v any) []byte { return AppendHello(nil, v.(Hello)) }},
	TypeHelloAck: {func(b []byte) (any, error) { return DecodeHelloAck(b) },
		func(v any) []byte { return AppendHelloAck(nil, v.(HelloAck)) }},
	TypeReport: {func(b []byte) (any, error) { return DecodeReport(b) },
		func(v any) []byte { return AppendReport(nil, v.(Report)) }},
	TypeToken: {func(b []byte) (any, error) { return DecodeToken(b) },
		func(v any) []byte { return AppendToken(nil, v.(Token)) }},
	TypeAck: {func(b []byte) (any, error) { return DecodeAck(b) },
		func(v any) []byte { return AppendAck(nil, v.(Ack)) }},
	TypeCycleEnd: {func(b []byte) (any, error) { return DecodeCycleEnd(b) },
		func(v any) []byte { return AppendCycleEnd(nil, v.(CycleEnd)) }},
}

// checkCodec holds every payload that decodes to the codec's contract: its
// value re-encodes to bytes that decode to the same value, and no proper
// prefix of those bytes decodes at all.
func checkCodec(t *testing.T, typ byte, payload []byte) {
	c, ok := codecs[typ]
	if !ok {
		return
	}
	v, err := c.decode(payload)
	if err != nil {
		return
	}
	body := c.encode(v)
	if body[0] != typ {
		t.Fatalf("type %d re-encoded as type %d", typ, body[0])
	}
	again, err := c.decode(body[1:])
	if err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("type %d: %+v re-encoded and decoded to %+v (%v)", typ, v, again, err)
	}
	for n := 0; n < len(body)-1; n++ {
		if _, err := c.decode(body[1 : 1+n]); err == nil {
			t.Fatalf("type %d: %d of %d payload bytes decoded cleanly", typ, n, len(body)-1)
		}
	}
}

// FuzzFrameStream feeds arbitrary bytes, after a valid hello, to the
// server's decode-many loop and checks what its handler saw against a
// reader built from the public one-frame-at-a-time helpers: the loop never
// panics, delivers exactly the frames the session watermark admits — none
// twice — in order and with the reference's contents (so no payload or
// path was read from a recycled buffer), and every frame in the stream that
// decodes at all meets checkCodec.
func FuzzFrameStream(f *testing.F) {
	f.Fuzz(checkFrameStream)
}

// The checked-in corpus is small streams; this one is more reports than one
// read buffer holds, so frames straddle refills, then a token larger than
// the buffer, which takes the reader's scratch path, and a report after it.
// It is a test of its own because the fuzzer spends its time minimizing an
// input this size.
func TestFrameStreamLongBurst(t *testing.T) {
	var stream []byte
	for seq := uint64(1); seq <= 1200; seq++ {
		r := Report{Seq: seq, Attempt: uint8(seq % 3), R: vote.Report{
			FlowID: int64(seq) * 7, Src: topology.HostID(seq / 4), Dst: 3, Retx: 2, Epoch: 5, Seq: int32(seq % 4),
			Path: make([]topology.LinkID, seq%9)}}
		for i := range r.R.Path {
			r.R.Path[i] = topology.LinkID(100*int(seq) + i)
		}
		stream = append(stream, Frame(AppendReport(nil, r))...)
	}
	tok := Token{Seq: 1201, Cycle: 5, Live: true, Summary: &EpochSummary{Epoch: 5, HasTruth: true}}
	for i := 0; i < 6000; i++ {
		tok.Summary.Truth = append(tok.Summary.Truth, TruthEntry{FlowID: int64(i), Culprit: 7, CrossedFailure: i%2 == 0})
	}
	stream = append(stream, Frame(AppendToken(nil, tok))...)
	stream = append(stream, Frame(AppendReport(nil, Report{Seq: 1202, R: vote.Report{Path: []topology.LinkID{1, 2}}}))...)
	stream = append(stream, Frame(AppendControl(nil, TypeBye))...)
	if len(stream) < 2*readBuffer {
		t.Fatalf("the stream is %d bytes, the read buffer %d", len(stream), readBuffer)
	}
	checkFrameStream(t, stream)
}

func checkFrameStream(t *testing.T, stream []byte) {
	// The reference: ReadFrame, Decode*, and the watermark rule.
	var wantReports []Report
	var wantTokens []Token
	wantByes := 0
	br := bufio.NewReader(bytes.NewReader(stream))
	var recv uint64
reference:
	for {
		typ, payload, err := ReadFrame(br, 0)
		if err != nil {
			break
		}
		checkCodec(t, typ, payload)
		switch typ {
		case TypeReport:
			r, err := DecodeReport(payload)
			if err != nil {
				break reference
			}
			if r.Seq > recv {
				recv = r.Seq
				wantReports = append(wantReports, Report{Attempt: r.Attempt, R: r.R})
			}
		case TypeToken:
			tok, err := DecodeToken(payload)
			if err != nil {
				break reference
			}
			if tok.Seq > recv {
				recv = tok.Seq
				wantTokens = append(wantTokens, tok)
			}
		case TypePing:
		case TypeBye:
			wantByes = 1
			break reference
		default:
			break reference
		}
	}

	h := &recHandler{}
	srv, err := Serve(ServerConfig{Listener: idleListener{make(chan struct{})}, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	agent, conn := net.Pipe()
	go io.Copy(io.Discard, agent) // the handshake answer, pongs
	go func() {
		agent.Write(Frame(AppendHello(nil, Hello{Version: Version, Session: 1})))
		agent.Write(stream)
		agent.Close()
	}()
	srv.wg.Add(1)
	srv.handle(conn)

	reports, tokens := h.snapshot()
	if len(reports) != len(wantReports) || len(tokens) != len(wantTokens) || h.byes != wantByes {
		t.Fatalf("handler saw %d reports, %d tokens, %d byes; the reference %d, %d, %d",
			len(reports), len(tokens), h.byes, len(wantReports), len(wantTokens), wantByes)
	}
	if len(reports) > 0 && !reflect.DeepEqual(reports, wantReports) {
		t.Fatal("a delivered report differs from the reference's decode")
	}
	if len(tokens) > 0 && !reflect.DeepEqual(tokens, wantTokens) {
		t.Fatal("a delivered token differs from the reference's decode")
	}
	if got := srv.Counters().FramesReceived.Load(); got != int64(len(reports)+len(tokens)) {
		t.Fatalf("FramesReceived = %d for %d deliveries", got, len(reports)+len(tokens))
	}
}
