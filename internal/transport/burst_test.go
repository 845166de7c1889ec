package transport

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"vigil/internal/topology"
	"vigil/internal/vote"
)

// seqHandler records, in arrival order, what identifies each delivered
// frame: a report's own Seq field (the tests number reports with it) and a
// token's cycle, told apart by kind.
type seqHandler struct {
	mu     sync.Mutex
	events []seqEvent
	tokens chan uint64 // each token's frame sequence
}

type seqEvent struct {
	token   bool
	id      int32 // report: R.Seq; token: Cycle
	attempt uint8
}

func newSeqHandler() *seqHandler { return &seqHandler{tokens: make(chan uint64, 64)} }

func (h *seqHandler) OnHello(uint64, Hello) {}
func (h *seqHandler) OnBye(uint64)          {}

func (h *seqHandler) OnReport(_ uint64, r vote.Report, attempt uint8) {
	h.mu.Lock()
	h.events = append(h.events, seqEvent{id: r.Seq, attempt: attempt})
	h.mu.Unlock()
}

func (h *seqHandler) OnToken(_ uint64, seq uint64, t Token) {
	h.mu.Lock()
	h.events = append(h.events, seqEvent{token: true, id: t.Cycle})
	h.mu.Unlock()
	h.tokens <- seq
}

func (h *seqHandler) snapshot() []seqEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]seqEvent{}, h.events...)
}

func (h *seqHandler) waitToken(t *testing.T) uint64 {
	t.Helper()
	select {
	case seq := <-h.tokens:
		return seq
	case <-time.After(10 * time.Second):
		t.Fatal("the cycle's token never reached the handler")
		return 0
	}
}

// burstReport is a report at the wire-replay workload's shape (66 framed
// bytes), numbered by id.
func burstReport(id int32) vote.Report {
	return vote.Report{FlowID: int64(id), Src: topology.HostID(id / 4), Dst: 9, Seq: id, Path: []topology.LinkID{1, 2, 3, 4, 5}}
}

var (
	burstFrameLen = len(Frame(AppendReport(nil, Report{R: burstReport(0)})))
	// perFlush is the number of staged burstReports that trips flushBytes.
	perFlush = (flushBytes + burstFrameLen - 1) / burstFrameLen
)

// burstCycles drives a fixed script of cycles through a fresh client and
// server and returns the client's counters: report counts on both sides of
// every flush boundary, a token-only cycle, and retry answers interleaved
// ahead of a live epoch. The durable ack trails the newest token by a cycle,
// as it does under a grace window, so the arena is trimmed at its head
// while frames are live behind it.
func burstCycles(t *testing.T) (frames, writes int64) {
	t.Helper()
	h := newSeqHandler()
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 11, WaitPoll: time.Second})
	ctx := context.Background()
	if err := cli.Connect(ctx); err != nil {
		t.Fatal(err)
	}

	counts := []int{perFlush - 1, perFlush, perFlush + 1, 0, 2*perFlush - 1, 2 * perFlush, 2*perFlush + 1}
	const retries = 3
	var want []seqEvent
	var wantWrites int64
	var next int32
	var prevToken uint64
	for cycle, n := range counts {
		staged := n
		if cycle == len(counts)-1 {
			// Retry answers go out ahead of the epoch's own reports.
			for i := 0; i < retries; i++ {
				if err := cli.SendReport(ctx, burstReport(next), 1); err != nil {
					t.Fatal(err)
				}
				want = append(want, seqEvent{id: next, attempt: 1})
				next++
			}
			staged += retries
		}
		for i := 0; i < n; i++ {
			if err := cli.SendReport(ctx, burstReport(next), 0); err != nil {
				t.Fatal(err)
			}
			want = append(want, seqEvent{id: next})
			next++
		}
		if err := cli.SendToken(ctx, Token{Cycle: int32(cycle)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, seqEvent{token: true, id: int32(cycle)})
		// One write per flushBytes of reports, one for the token and whatever
		// is staged behind it.
		wantWrites += int64(staged/perFlush) + 1

		tokenSeq := h.waitToken(t)
		if err := srv.Commit(int64(cycle), map[uint64]uint64{11: prevToken}); err != nil {
			t.Fatal(err)
		}
		prevToken = tokenSeq
		srv.SendCycleEnd(11, CycleEnd{Cycle: int32(cycle)})
		if _, err := cli.WaitCycleEnd(ctx, int32(cycle)); err != nil {
			t.Fatal(err)
		}
		// Everything after the previous cycle's token is still held.
		if got, want := cli.Buffered(), staged+1; got != want {
			t.Fatalf("cycle %d: %d frames buffered, want %d", cycle, got, want)
		}
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("handler saw %d frames, want %d, or out of order", len(got), len(want))
	}
	ctr := cli.Counters()
	if got := ctr.Writes.Load(); got != wantWrites {
		t.Fatalf("Writes = %d, want %d", got, wantWrites)
	}
	if ctr.FramesSent.Load() != int64(len(want)) || ctr.FramesResent.Load() != 0 || ctr.Resumes.Load() != 0 {
		t.Fatalf("sent %d of %d frames, resent %d, resumes %d on a fault-free wire",
			ctr.FramesSent.Load(), len(want), ctr.FramesResent.Load(), ctr.Resumes.Load())
	}
	if srv.Counters().FramesDropped.Load() != 0 {
		t.Fatal("the server dropped frames on a fault-free wire")
	}
	return ctr.FramesSent.Load(), ctr.Writes.Load()
}

// Flushes land where the cost model says — on flushBytes of staged frames
// and on every token, nowhere else — without ever reordering, losing or
// repeating a frame, and the write count is a pure function of what was
// sent.
func TestWireBurstBoundaries(t *testing.T) {
	frames, writes := burstCycles(t)
	if frames < 100*writes {
		t.Fatalf("%d frames took %d writes: the wire is not batching", frames, writes)
	}
	frames2, writes2 := burstCycles(t)
	if frames2 != frames || writes2 != writes {
		t.Fatalf("second run sent %d frames in %d writes, first %d in %d", frames2, writes2, frames, writes)
	}
}

// cutConn tears the connection in the middle of its nth write: the first
// keep bytes go out, then the socket closes under the writer.
type cutConn struct {
	net.Conn
	n, keep int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.n--
	if c.n != 0 {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.keep])
	c.Conn.Close()
	return n, net.ErrClosed
}

// A connection that dies inside a coalesced write loses the torn frame and
// everything behind it, and nothing else: the resume replays from the
// server's processed watermark, frame-exactly, in one write.
func TestCutInsideCoalescedWrite(t *testing.T) {
	h := newSeqHandler()
	srv := newTestServer(t, h, ServerConfig{})
	// The token's flush carries `tail` reports and the token; the cut lets
	// `whole` of them through and tears the next in half.
	const tail, whole = 40, 17
	total := perFlush + tail + 1
	landed := int64(perFlush + whole)
	dials := 0
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 12, WaitPoll: time.Second,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials++
			if dials > 1 {
				// Resume only once the server has worked through what landed,
				// so the handshake's watermark is the one asserted below.
				deadline := time.Now().Add(10 * time.Second)
				for srv.Counters().FramesReceived.Load() < landed && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil || dials > 1 {
				return conn, err
			}
			// Write 1 is the hello, 2 the first full burst, 3 the token's.
			return &cutConn{Conn: conn, n: 3, keep: whole*burstFrameLen + burstFrameLen/2}, nil
		}})
	ctx := context.Background()
	if err := cli.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	var want []seqEvent
	for i := int32(0); i < int32(perFlush+tail); i++ {
		if err := cli.SendReport(ctx, burstReport(i), 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, seqEvent{id: i})
	}
	if err := cli.SendToken(ctx, Token{Cycle: 0}); err != nil {
		t.Fatal(err)
	}
	want = append(want, seqEvent{token: true})
	h.waitToken(t)

	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("handler saw %d frames, want %d, or out of order", len(got), len(want))
	}
	ctr := cli.Counters()
	if got := ctr.Resumes.Load(); got != 1 {
		t.Fatalf("Resumes = %d, want 1 for the one cut", got)
	}
	if got, want := ctr.FramesResent.Load(), int64(total)-landed; got != want {
		t.Fatalf("FramesResent = %d, want the %d frames past the watermark", got, want)
	}
	if got := srv.Counters().FramesDropped.Load(); got != 0 {
		t.Fatalf("the replay overlapped the watermark: %d stale frames", got)
	}
	// Hello aside: the full burst, the torn write, the replay.
	if got := ctr.Writes.Load(); got != 3 {
		t.Fatalf("Writes = %d, want 3", got)
	}
}

// The proxy's Cut fate tears frames in the middle of coalesced writes, as
// many times as the seed says: every frame is still delivered exactly once,
// in order, and every cut costs exactly one resume.
func TestProxyCutsCoalescedWrites(t *testing.T) {
	h := newSeqHandler()
	srv := newTestServer(t, h, ServerConfig{})
	proxy, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: srv.Addr(), Seed: 5, Cut: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// No pings: the only frames the proxy can cut are the ones counted here.
	cli := newTestClient(t, proxy.Addr(), ClientConfig{Session: 13, WaitPoll: 5 * time.Second})
	ctx := context.Background()
	var want []seqEvent
	var next int32
	for cycle := int32(0); cycle < 3; cycle++ {
		for i := 0; i < 2*perFlush+7; i++ {
			if err := cli.SendReport(ctx, burstReport(next), 0); err != nil {
				t.Fatal(err)
			}
			want = append(want, seqEvent{id: next})
			next++
		}
		if err := cli.SendToken(ctx, Token{Cycle: cycle}); err != nil {
			t.Fatal(err)
		}
		want = append(want, seqEvent{token: true, id: cycle})
		// A cut token is replayed by WaitCycleEnd's reconnect, so end the
		// cycle from the side: the cycle-end is stored and re-offered.
		seq := make(chan uint64, 1)
		go func() {
			s := <-h.tokens
			srv.Commit(int64(cycle), map[uint64]uint64{13: s})
			srv.SendCycleEnd(13, CycleEnd{Cycle: cycle})
			seq <- s
		}()
		if _, err := cli.WaitCycleEnd(ctx, cycle); err != nil {
			t.Fatal(err)
		}
		<-seq
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("handler saw %d frames, want %d, or out of order", len(got), len(want))
	}
	cuts := proxy.InjCuts.Load()
	if cuts < 2 {
		t.Fatalf("the seed cut %d times; pick one that cuts inside the bursts", cuts)
	}
	if got := cli.Counters().Resumes.Load(); got != cuts {
		t.Fatalf("Resumes = %d, want InjCuts = %d", got, cuts)
	}
	if cli.Counters().FramesResent.Load() == 0 {
		t.Fatal("cuts inside bursts replayed nothing")
	}
}

// The arena's index survives trimming at its head, compaction and a full
// reset, and a resume watermark on either side of what is held.
func TestArenaIndex(t *testing.T) {
	cli, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", Window: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Stage frames of distinct lengths without a connection (ship would
	// dial), checking every live frame's bytes after every step.
	var frames [][]byte // frames[i] is the expected encoding of sequence i+1
	stage := func() {
		t.Helper()
		if err := cli.begin(); err != nil {
			t.Fatal(err)
		}
		rep := Report{Seq: cli.nextSeq, R: vote.Report{Seq: int32(cli.nextSeq), Path: make([]topology.LinkID, cli.nextSeq%7)}}
		cli.arena = AppendReport(cli.arena, rep)
		cli.seal()
		frames = append(frames, Frame(AppendReport(nil, rep)))
	}
	check := func() {
		t.Helper()
		if got, want := cli.Buffered(), int(cli.nextSeq-cli.durable); got != want {
			t.Fatalf("Buffered = %d, want %d", got, want)
		}
		for seq := uint64(0); seq <= cli.nextSeq+1; seq++ {
			var want []byte
			for s := max(seq, cli.durable) + 1; s <= cli.nextSeq; s++ {
				want = append(want, frames[s-1]...)
			}
			if got := cli.arena[cli.offsetAfter(seq):]; string(got) != string(want) {
				t.Fatalf("durable %d, next %d: replay after %d is %d bytes, want %d", cli.durable, cli.nextSeq, seq, len(got), len(want))
			}
		}
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 5+round%11; i++ {
			stage()
		}
		check()
		switch round % 4 {
		case 0: // trim a little: dead prefix, no compaction yet
			cli.onAck(cli.durable + 2)
		case 1: // trim most: the next begin compacts
			cli.onAck(cli.nextSeq - 1)
		case 2: // a stale ack and one from the future
			cli.onAck(cli.durable / 2)
			cli.onAck(cli.nextSeq + 100)
		}
		check()
	}
	if cap(cli.arena) > 1<<16 {
		t.Fatalf("arena grew to %d bytes holding at most a few rounds of frames", cap(cli.arena))
	}
}
