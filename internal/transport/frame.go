// Package transport is the networked ingest boundary: a length-prefixed
// binary framed protocol that carries the ingest sequencing identity —
// agent ID, epoch, per-agent sequence, cycle tokens with expected-count
// headers — end to end over TCP, between vigil-agents-style reporters and
// a vigild collector.
//
// The robustness model has two layers with a sharp division of labor:
//
//   - The transport layer provides resumable, in-order, at-most-once
//     delivery per session. Every data frame carries a session-scoped
//     sequence number; the collector keeps a per-session processed
//     watermark (stale frames are dropped, never double-delivered) and a
//     durable watermark (advanced only when the covered epochs have
//     settled and, if configured, been checkpointed to disk). An agent
//     buffers every sequenced frame until it is durably acknowledged, so a
//     reconnect — after a partition, a mid-frame cut, or a collector crash
//     — replays exactly the frames the collector's current state has not
//     absorbed. A partition therefore never loses or duplicates a report.
//
//   - The ingest layer above (internal/ingest) provides exactly-once epoch
//     settlement: per-agent sequence-gap detection, duplicate suppression,
//     bounded retry, and the grace-window watermark. Wire-level frame loss
//     injected between the watermarks (a lossy middlebox, the chaos proxy)
//     surfaces as ingest-level gaps and is recovered by ingest's
//     end-to-end re-requests — or accounted as Lost, never silently.
//
// Liveness is explicit on both ends: agents heartbeat while waiting on the
// collector and re-send their cycle token when a cycle-end goes missing;
// both ends run read/write deadlines so a hung peer surfaces as a
// reconnect, not a stuck pipeline. proxy.go provides a deterministic
// wire-level fault injector for reproducible chaos tests.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"vigil/internal/topology"
	"vigil/internal/vote"
)

// Version is the protocol version carried in every Hello.
const Version = 1

// Frame types. Report and Token are "sequenced": they carry a
// session-scoped sequence number, are buffered by the sender until durably
// acknowledged, and are deduplicated by the receiver's watermark. The rest
// are control frames.
const (
	TypeHello    byte = 1 // client→server: open or resume a session
	TypeHelloAck byte = 2 // server→client: resume point
	TypeReport   byte = 3 // client→server: one vote report (sequenced)
	TypeToken    byte = 4 // client→server: end-of-cycle token (sequenced)
	TypeAck      byte = 5 // server→client: durable cumulative acknowledgement
	TypeCycleEnd byte = 6 // server→client: cycle complete + retry requests
	TypePing     byte = 7 // client→server: liveness probe
	TypePong     byte = 8 // server→client: liveness answer
	TypeBye      byte = 9 // client→server: clean end of session
)

// DefaultMaxFrame bounds a frame's payload; a length prefix beyond it is a
// protocol violation (or line noise) and kills the connection.
const DefaultMaxFrame = 1 << 22

// Hello opens (or resumes) a session. ThresholdFrac and MaxLinks carry the
// engine's Algorithm 1 parameters so the collector's analysis of settled
// epochs is bit-identical to the agent-side batch engine's.
type Hello struct {
	Version       uint8
	Session       uint64
	ThresholdFrac float64
	MaxLinks      int32
}

// HelloAck answers a Hello: the server has processed every sequenced frame
// up to Resume, so the client replays only frames after it. Durable is the
// server's durable watermark; frames at or below it may be forgotten.
type HelloAck struct {
	Resume  uint64
	Durable uint64
}

// Report is one sequenced vote report.
type Report struct {
	Seq     uint64
	Attempt uint8
	R       vote.Report
}

// AgentCount is one agent's expected report count for one epoch, the
// header gap detection runs on.
type AgentCount struct {
	Agent topology.HostID
	N     int32
}

// TruthEntry is one flow's ground truth in an epoch summary.
type TruthEntry struct {
	FlowID         int64
	Culprit        topology.LinkID
	CrossedFailure bool
}

// EpochSummary is the epoch's ground truth and totals, shipped with the
// cycle token so the collector can settle the epoch into a complete
// EpochResult without sharing memory with the engine.
type EpochSummary struct {
	Epoch       int32
	TotalFlows  int32
	FailedFlows int32
	TotalDrops  int32
	// HasFailed/HasTruth preserve nil-ness across the wire so fault-free
	// networked results compare bit-identical to in-process ones.
	HasFailed   bool
	FailedLinks []topology.LinkID
	HasTruth    bool
	Truth       []TruthEntry // sorted by FlowID
}

// Token ends one cycle on a session: the per-agent expected counts for the
// cycle's epoch, plus the epoch summary when the cycle ran a live epoch.
type Token struct {
	Seq     uint64
	Cycle   int32
	Live    bool
	Counts  []AgentCount
	Summary *EpochSummary // nil unless Live
}

// Ack is the server's durable cumulative acknowledgement: every sequenced
// frame at or below Durable is reflected in settled (and, if configured,
// checkpointed) collector state and may be forgotten by the client.
type Ack struct {
	Durable uint64
}

// RetryReq asks an agent session to retransmit one report.
type RetryReq struct {
	Agent   topology.HostID
	Epoch   int32
	Seq     int32
	Attempt uint8
}

// CycleEnd is the collector's lockstep handshake: the cycle is complete on
// every session, and these reports are due for retransmission.
type CycleEnd struct {
	Cycle   int32
	Retries []RetryReq
}

// --- encoding ------------------------------------------------------------

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int32) []byte  { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader is a cursor over a frame payload; decode errors latch.
type reader struct {
	b   []byte
	err bool
}

func (r *reader) take(n int) []byte {
	if r.err || len(r.b) < n {
		r.err = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i32() int32 { return int32(r.u32()) }
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) bool() bool { return r.u8() != 0 }
func (r *reader) done() error {
	if r.err {
		return fmt.Errorf("transport: short frame")
	}
	if len(r.b) != 0 {
		return fmt.Errorf("transport: %d trailing bytes in frame", len(r.b))
	}
	return nil
}

// AppendHello encodes a Hello frame body (type byte included) onto dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendU8(dst, TypeHello)
	dst = appendU8(dst, h.Version)
	dst = appendU64(dst, h.Session)
	dst = appendU64(dst, math.Float64bits(h.ThresholdFrac))
	dst = appendI32(dst, h.MaxLinks)
	return dst
}

func DecodeHello(payload []byte) (Hello, error) {
	r := reader{b: payload}
	h := Hello{
		Version:       r.u8(),
		Session:       r.u64(),
		ThresholdFrac: math.Float64frombits(r.u64()),
		MaxLinks:      r.i32(),
	}
	return h, r.done()
}

func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = appendU8(dst, TypeHelloAck)
	dst = appendU64(dst, a.Resume)
	dst = appendU64(dst, a.Durable)
	return dst
}

func DecodeHelloAck(payload []byte) (HelloAck, error) {
	r := reader{b: payload}
	a := HelloAck{Resume: r.u64(), Durable: r.u64()}
	return a, r.done()
}

func AppendReport(dst []byte, f Report) []byte {
	dst = appendU8(dst, TypeReport)
	dst = appendU64(dst, f.Seq)
	dst = appendU8(dst, f.Attempt)
	dst = appendI64(dst, f.R.FlowID)
	dst = appendI32(dst, int32(f.R.Src))
	dst = appendI32(dst, int32(f.R.Dst))
	dst = appendI32(dst, int32(f.R.Retx))
	dst = appendBool(dst, f.R.Partial)
	dst = appendI32(dst, f.R.Epoch)
	dst = appendI32(dst, f.R.Seq)
	dst = appendBool(dst, f.R.Path != nil)
	dst = appendU16(dst, uint16(len(f.R.Path)))
	for _, l := range f.R.Path {
		dst = appendI32(dst, int32(l))
	}
	return dst
}

// DecodeReport decodes one report frame payload; the path is the report's
// own allocation.
func DecodeReport(payload []byte) (Report, error) { return decodeReport(payload, nil) }

// linkChunk is how many path links one chunk of a linkArena holds: about an
// epoch of paths at the shape the benchmark records (1.4k reports of five to
// six links), so a settled epoch a Sink retains pins a chunk or two.
const linkChunk = 8 << 10

// linkArena hands out report paths from chunks instead of one allocation
// per report. A full chunk is left to the garbage collector, never reused:
// the paths cut from it belong to reports the collector's Sink may keep.
type linkArena struct{ buf []topology.LinkID }

// alloc returns a non-nil path of n links with no spare capacity, so an
// append by whoever holds it cannot reach a neighbour's links. A nil arena
// allocates the path on its own.
func (a *linkArena) alloc(n int) []topology.LinkID {
	if a == nil {
		return make([]topology.LinkID, n)
	}
	if a.buf == nil || cap(a.buf)-len(a.buf) < n {
		a.buf = make([]topology.LinkID, 0, max(linkChunk, n))
	}
	at := len(a.buf)
	a.buf = a.buf[:at+n]
	return a.buf[at : at+n : at+n]
}

// decodeReport is DecodeReport with the path cut from paths.
func decodeReport(payload []byte, paths *linkArena) (Report, error) {
	r := reader{b: payload}
	var f Report
	f.Seq = r.u64()
	f.Attempt = r.u8()
	f.R.FlowID = r.i64()
	f.R.Src = topology.HostID(r.i32())
	f.R.Dst = topology.HostID(r.i32())
	f.R.Retx = int(r.i32())
	f.R.Partial = r.bool()
	f.R.Epoch = r.i32()
	f.R.Seq = r.i32()
	hasPath := r.bool()
	n := int(r.u16())
	if hasPath && !r.err && 4*n <= len(r.b) {
		f.R.Path = paths.alloc(n)
		for i := range f.R.Path {
			f.R.Path[i] = topology.LinkID(r.i32())
		}
	} else if n > 0 {
		// No path flag, or a count the payload cannot hold: refused before
		// any path is allocated for it.
		r.err = true
	}
	return f, r.done()
}

func AppendToken(dst []byte, t Token) []byte {
	dst = appendU8(dst, TypeToken)
	dst = appendU64(dst, t.Seq)
	dst = appendI32(dst, t.Cycle)
	dst = appendBool(dst, t.Live)
	dst = appendU32(dst, uint32(len(t.Counts)))
	for _, c := range t.Counts {
		dst = appendI32(dst, int32(c.Agent))
		dst = appendI32(dst, c.N)
	}
	dst = appendBool(dst, t.Summary != nil)
	if s := t.Summary; s != nil {
		dst = appendI32(dst, s.Epoch)
		dst = appendI32(dst, s.TotalFlows)
		dst = appendI32(dst, s.FailedFlows)
		dst = appendI32(dst, s.TotalDrops)
		dst = appendBool(dst, s.HasFailed)
		dst = appendU32(dst, uint32(len(s.FailedLinks)))
		for _, l := range s.FailedLinks {
			dst = appendI32(dst, int32(l))
		}
		dst = appendBool(dst, s.HasTruth)
		dst = appendU32(dst, uint32(len(s.Truth)))
		for _, e := range s.Truth {
			dst = appendI64(dst, e.FlowID)
			dst = appendI32(dst, int32(e.Culprit))
			dst = appendBool(dst, e.CrossedFailure)
		}
	}
	return dst
}

func DecodeToken(payload []byte) (Token, error) {
	r := reader{b: payload}
	var t Token
	t.Seq = r.u64()
	t.Cycle = r.i32()
	t.Live = r.bool()
	if n := int(r.u32()); n > 0 && !r.err {
		if n > len(r.b)/8+1 {
			return t, fmt.Errorf("transport: token count overflow")
		}
		t.Counts = make([]AgentCount, n)
		for i := range t.Counts {
			t.Counts[i] = AgentCount{Agent: topology.HostID(r.i32()), N: r.i32()}
		}
	}
	if r.bool() {
		s := &EpochSummary{}
		s.Epoch = r.i32()
		s.TotalFlows = r.i32()
		s.FailedFlows = r.i32()
		s.TotalDrops = r.i32()
		s.HasFailed = r.bool()
		if n := int(r.u32()); !r.err {
			if n > len(r.b)/4+1 {
				return t, fmt.Errorf("transport: failed-link count overflow")
			}
			if s.HasFailed {
				s.FailedLinks = make([]topology.LinkID, n)
				for i := range s.FailedLinks {
					s.FailedLinks[i] = topology.LinkID(r.i32())
				}
			} else if n > 0 {
				r.err = true
			}
		}
		s.HasTruth = r.bool()
		if n := int(r.u32()); !r.err {
			if n > len(r.b)/13+1 {
				return t, fmt.Errorf("transport: truth count overflow")
			}
			if s.HasTruth {
				s.Truth = make([]TruthEntry, n)
				for i := range s.Truth {
					s.Truth[i] = TruthEntry{
						FlowID:         r.i64(),
						Culprit:        topology.LinkID(r.i32()),
						CrossedFailure: r.bool(),
					}
				}
			} else if n > 0 {
				r.err = true
			}
		}
		t.Summary = s
	}
	return t, r.done()
}

func AppendAck(dst []byte, a Ack) []byte {
	dst = appendU8(dst, TypeAck)
	dst = appendU64(dst, a.Durable)
	return dst
}

func DecodeAck(payload []byte) (Ack, error) {
	r := reader{b: payload}
	a := Ack{Durable: r.u64()}
	return a, r.done()
}

func AppendCycleEnd(dst []byte, ce CycleEnd) []byte {
	dst = appendU8(dst, TypeCycleEnd)
	dst = appendI32(dst, ce.Cycle)
	dst = appendU32(dst, uint32(len(ce.Retries)))
	for _, q := range ce.Retries {
		dst = appendI32(dst, int32(q.Agent))
		dst = appendI32(dst, q.Epoch)
		dst = appendI32(dst, q.Seq)
		dst = appendU8(dst, q.Attempt)
	}
	return dst
}

func DecodeCycleEnd(payload []byte) (CycleEnd, error) {
	r := reader{b: payload}
	var ce CycleEnd
	ce.Cycle = r.i32()
	if n := int(r.u32()); n > 0 && !r.err {
		if n > len(r.b)/13+1 {
			return ce, fmt.Errorf("transport: retry count overflow")
		}
		ce.Retries = make([]RetryReq, n)
		for i := range ce.Retries {
			ce.Retries[i] = RetryReq{
				Agent:   topology.HostID(r.i32()),
				Epoch:   r.i32(),
				Seq:     r.i32(),
				Attempt: r.u8(),
			}
		}
	}
	return ce, r.done()
}

// AppendControl encodes a bodyless control frame (Ping, Pong, Bye).
func AppendControl(dst []byte, typ byte) []byte { return appendU8(dst, typ) }

// Frame encodes a complete frame (length prefix included) ready to write.
func Frame(body []byte) []byte {
	out := make([]byte, 0, 4+len(body))
	out = appendU32(out, uint32(len(body)))
	return append(out, body...)
}

// ReadFrame reads one frame from br, returning its type and payload (the
// body after the type byte) as the caller's own copy. maxFrame bounds the
// body length; 0 means DefaultMaxFrame.
func ReadFrame(br *bufio.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	fr := frameReader{br: br, maxFrame: maxFrame}
	typ, payload, err = fr.next()
	if err != nil {
		return 0, nil, err
	}
	payload = bytes.Clone(payload)
	fr.release()
	return typ, payload, nil
}

// frameReader reads a frame stream without a copy or an allocation per
// frame: next returns a payload that aliases br's buffer (the reader's own
// scratch for a frame larger than that buffer) and is valid until the next
// call.
type frameReader struct {
	br       *bufio.Reader
	maxFrame int // 0 means DefaultMaxFrame
	// conn, when set, has its read deadline pushed timeout ahead before a
	// read that may block, and only then: frames already buffered cost no
	// deadline calls.
	conn    net.Conn
	timeout time.Duration

	pending int    // bytes of the last returned frame still to discard from br
	scratch []byte // body of a frame larger than br's buffer
}

// release gives the last returned payload's bytes back to br.
func (fr *frameReader) release() {
	fr.br.Discard(fr.pending) // cannot fail: the bytes were peeked
	fr.pending = 0
}

func (fr *frameReader) arm() {
	if fr.conn != nil {
		fr.conn.SetReadDeadline(time.Now().Add(fr.timeout))
	}
}

// peek is br.Peek behind the deadline; like io.ReadFull it reports a stream
// that ends inside the n bytes as io.ErrUnexpectedEOF.
func (fr *frameReader) peek(n int) ([]byte, error) {
	if fr.br.Buffered() < n {
		fr.arm()
	}
	b, err := fr.br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	fr.release()
	maxFrame := fr.maxFrame
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	hdr, err := fr.peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d outside [1, %d]", n, maxFrame)
	}
	if 4+n <= fr.br.Size() {
		frame, err := fr.peek(4 + n)
		if err != nil {
			return 0, nil, err
		}
		fr.pending = 4 + n
		return frame[4], frame[5:], nil
	}
	fr.br.Discard(4)
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	body := fr.scratch[:n]
	fr.arm()
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// Test hook: SeqOf extracts the session sequence number from a sequenced
// frame's payload (Report and Token lay it out first), so a test's target
// can check the order it received. ok is false for control frames or
// truncated payloads.
func SeqOf(typ byte, payload []byte) (seq uint64, ok bool) {
	if (typ != TypeReport && typ != TypeToken) || len(payload) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}
