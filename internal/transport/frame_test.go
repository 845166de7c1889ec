package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"vigil/internal/topology"
	"vigil/internal/vote"
)

// reframe pushes an encoded body through the wire path — Frame, then
// ReadFrame — and returns the decoded type and payload.
func reframe(t *testing.T, body []byte) (byte, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(Frame(body)))
	typ, payload, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return typ, payload
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, Session: 1<<40 + 7, ThresholdFrac: 0.8125, MaxLinks: 5}
	typ, payload := reframe(t, AppendHello(nil, in))
	if typ != TypeHello {
		t.Fatalf("type = %d, want TypeHello", typ)
	}
	out, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed Hello: %+v -> %+v", in, out)
	}
}

func TestHelloAckAckRoundTrip(t *testing.T) {
	ha := HelloAck{Resume: 42, Durable: 17}
	typ, payload := reframe(t, AppendHelloAck(nil, ha))
	if typ != TypeHelloAck {
		t.Fatalf("type = %d, want TypeHelloAck", typ)
	}
	if got, err := DecodeHelloAck(payload); err != nil || got != ha {
		t.Fatalf("HelloAck round trip: %+v, %v", got, err)
	}
	a := Ack{Durable: 1 << 33}
	typ, payload = reframe(t, AppendAck(nil, a))
	if typ != TypeAck {
		t.Fatalf("type = %d, want TypeAck", typ)
	}
	if got, err := DecodeAck(payload); err != nil || got != a {
		t.Fatalf("Ack round trip: %+v, %v", got, err)
	}
}

// Report frames must preserve the full vote identity — including the
// nil-vs-empty distinction on Path, which the bit-identity contract
// depends on.
func TestReportRoundTrip(t *testing.T) {
	cases := []Report{
		{Seq: 1, Attempt: 0, R: vote.Report{
			FlowID: 99, Src: 3, Dst: 7, Retx: 2, Epoch: 4, Seq: 11,
			Path: []topology.LinkID{1, 5, 9},
		}},
		{Seq: 2, Attempt: 3, R: vote.Report{
			FlowID: -1, Src: 0, Dst: 1, Partial: true, Epoch: 0, Seq: 0,
			Path: nil,
		}},
		{Seq: 3, R: vote.Report{Path: []topology.LinkID{}}},
	}
	for i, in := range cases {
		typ, payload := reframe(t, AppendReport(nil, in))
		if typ != TypeReport {
			t.Fatalf("case %d: type = %d, want TypeReport", i, typ)
		}
		out, err := DecodeReport(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("case %d: round trip changed Report:\n in %+v\nout %+v", i, in, out)
		}
		if (out.R.Path == nil) != (in.R.Path == nil) {
			t.Fatalf("case %d: Path nil-ness not preserved", i)
		}
	}
}

// Token frames carry the expected counts and the full epoch summary,
// preserving the nil-ness of FailedLinks and Truth.
func TestTokenRoundTrip(t *testing.T) {
	cases := []Token{
		{Seq: 9, Cycle: 2, Live: false},
		{Seq: 10, Cycle: 3, Live: true,
			Counts:  []AgentCount{{Agent: 1, N: 4}, {Agent: 6, N: 0}},
			Summary: &EpochSummary{Epoch: 3, TotalFlows: 40, FailedFlows: 3, TotalDrops: 17}},
		{Seq: 11, Cycle: 4, Live: true,
			Summary: &EpochSummary{
				Epoch: 4, HasFailed: true,
				FailedLinks: []topology.LinkID{3, 8},
				HasTruth:    true,
				Truth: []TruthEntry{
					{FlowID: 5, Culprit: 3, CrossedFailure: true},
					{FlowID: 9, Culprit: -1},
				},
			}},
		{Seq: 12, Cycle: 5, Live: true,
			Summary: &EpochSummary{Epoch: 5, HasFailed: true, FailedLinks: []topology.LinkID{}, HasTruth: true, Truth: []TruthEntry{}}},
	}
	for i, in := range cases {
		typ, payload := reframe(t, AppendToken(nil, in))
		if typ != TypeToken {
			t.Fatalf("case %d: type = %d, want TypeToken", i, typ)
		}
		out, err := DecodeToken(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("case %d: round trip changed Token:\n in %+v\nout %+v", i, in, out)
		}
	}
}

func TestCycleEndRoundTrip(t *testing.T) {
	cases := []CycleEnd{
		{Cycle: 0},
		{Cycle: 7, Retries: []RetryReq{
			{Agent: 2, Epoch: 5, Seq: 3, Attempt: 1},
			{Agent: 9, Epoch: 6, Seq: 0, Attempt: 2},
		}},
	}
	for i, in := range cases {
		typ, payload := reframe(t, AppendCycleEnd(nil, in))
		if typ != TypeCycleEnd {
			t.Fatalf("case %d: type = %d, want TypeCycleEnd", i, typ)
		}
		out, err := DecodeCycleEnd(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("case %d: round trip changed CycleEnd:\n in %+v\nout %+v", i, in, out)
		}
	}
}

// Malformed payloads must decode to errors, never to silently-wrong
// values: truncation anywhere, trailing garbage, a count that promises
// more entries than the payload can hold, and a present count with an
// absent nil flag.
func TestDecodeMalformed(t *testing.T) {
	hello := AppendHello(nil, Hello{Version: 1, Session: 3})[1:]
	report := AppendReport(nil, Report{Seq: 1, R: vote.Report{Path: []topology.LinkID{1, 2}}})[1:]
	token := AppendToken(nil, Token{Seq: 2, Cycle: 1, Live: true,
		Counts: []AgentCount{{Agent: 1, N: 2}}, Summary: &EpochSummary{Epoch: 1}})[1:]
	ce := AppendCycleEnd(nil, CycleEnd{Cycle: 1, Retries: []RetryReq{{Agent: 1}}})[1:]

	// Truncation at every prefix length must error, not misdecode.
	for name, tc := range map[string]struct {
		payload []byte
		dec     func([]byte) error
	}{
		"hello":    {hello, func(b []byte) error { _, err := DecodeHello(b); return err }},
		"report":   {report, func(b []byte) error { _, err := DecodeReport(b); return err }},
		"token":    {token, func(b []byte) error { _, err := DecodeToken(b); return err }},
		"cycleEnd": {ce, func(b []byte) error { _, err := DecodeCycleEnd(b); return err }},
	} {
		for n := 0; n < len(tc.payload); n++ {
			if err := tc.dec(tc.payload[:n]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded cleanly", name, n)
			}
		}
		if err := tc.dec(append(append([]byte{}, tc.payload...), 0xFF)); err == nil {
			t.Errorf("%s with a trailing byte decoded cleanly", name)
		}
	}

	// A count field promising far more entries than the payload holds must
	// be rejected before any allocation is attempted.
	huge := appendU64(nil, 1) // seq
	huge = appendI32(huge, 0) // cycle
	huge = appendBool(huge, true)
	huge = appendU32(huge, 1<<30) // counts: absurd
	if _, err := DecodeToken(huge); err == nil {
		t.Error("token with absurd count decoded cleanly")
	}

	// Path count > 0 with the nil flag unset is a contradiction.
	bad := appendU64(nil, 1) // seq
	bad = appendU8(bad, 0)   // attempt
	bad = appendI64(bad, 0)  // flow
	bad = appendI32(bad, 0)  // src
	bad = appendI32(bad, 0)  // dst
	bad = appendI32(bad, 0)  // retx
	bad = appendBool(bad, false)
	bad = appendI32(bad, 0)      // epoch
	bad = appendI32(bad, 0)      // seq
	bad = appendBool(bad, false) // path nil
	bad = appendU16(bad, 3)      // ...but 3 entries
	bad = appendI32(bad, 1)
	bad = appendI32(bad, 2)
	bad = appendI32(bad, 3)
	if _, err := DecodeReport(bad); err == nil {
		t.Error("report with nil path flag but nonzero count decoded cleanly")
	}
}

func TestReadFrameBounds(t *testing.T) {
	// Zero-length frame: no type byte, protocol violation.
	br := bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, _, err := ReadFrame(br, 0); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversize length prefix.
	br = bufio.NewReader(bytes.NewReader(Frame(make([]byte, 100))))
	if _, _, err := ReadFrame(br, 50); err == nil {
		t.Error("frame above maxFrame accepted")
	}
	// Torn frame: the length promises more than the stream holds — exactly
	// what a mid-frame cut produces.
	whole := Frame(AppendControl(nil, TypePing))
	br = bufio.NewReader(bytes.NewReader(whole[:len(whole)-1]))
	if _, _, err := ReadFrame(br, 0); err == nil {
		t.Error("torn frame accepted")
	}
}

func TestSeqOf(t *testing.T) {
	rep := AppendReport(nil, Report{Seq: 77})
	if seq, ok := SeqOf(rep[0], rep[1:]); !ok || seq != 77 {
		t.Fatalf("SeqOf(report) = %d, %v", seq, ok)
	}
	tok := AppendToken(nil, Token{Seq: 78})
	if seq, ok := SeqOf(tok[0], tok[1:]); !ok || seq != 78 {
		t.Fatalf("SeqOf(token) = %d, %v", seq, ok)
	}
	if _, ok := SeqOf(TypePing, nil); ok {
		t.Fatal("SeqOf accepted a control frame")
	}
	if _, ok := SeqOf(TypeReport, []byte{1, 2}); ok {
		t.Fatal("SeqOf accepted a truncated payload")
	}
}
