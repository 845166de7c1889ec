package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// recHandler records the deduplicated frame stream a server delivers.
type recHandler struct {
	mu      sync.Mutex
	hellos  []Hello
	reports []Report
	tokens  []Token
	byes    int
	onToken func(sess uint64, seq uint64, t Token)
}

func (h *recHandler) OnHello(sess uint64, hello Hello) {
	h.mu.Lock()
	h.hellos = append(h.hellos, hello)
	h.mu.Unlock()
}

func (h *recHandler) OnReport(sess uint64, r vote.Report, attempt uint8) {
	h.mu.Lock()
	h.reports = append(h.reports, Report{Attempt: attempt, R: r})
	h.mu.Unlock()
}

func (h *recHandler) OnToken(sess uint64, seq uint64, t Token) {
	h.mu.Lock()
	h.tokens = append(h.tokens, t)
	cb := h.onToken
	h.mu.Unlock()
	if cb != nil {
		cb(sess, seq, t)
	}
}

func (h *recHandler) OnBye(sess uint64) {
	h.mu.Lock()
	h.byes++
	h.mu.Unlock()
}

func (h *recHandler) snapshot() (reports []Report, tokens []Token) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Report{}, h.reports...), append([]Token{}, h.tokens...)
}

func newTestServer(t *testing.T, h Handler, cfg ServerConfig) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = ln
	cfg.Handler = h
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newTestClient(t *testing.T, addr string, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Addr = addr
	if cfg.WaitPoll == 0 {
		cfg.WaitPoll = 10 * time.Millisecond
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 50 * time.Millisecond
	}
	cli, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// The lockstep happy path: reports and a token flow up, the handler sees
// them once each, a Commit acks durably (trimming the client's replay
// buffer), and the cycle-end comes back.
func TestSessionLockstep(t *testing.T) {
	h := &recHandler{}
	tokenSeq := make(chan uint64, 1)
	h.onToken = func(sess, seq uint64, tok Token) { tokenSeq <- seq }
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 7, ThresholdFrac: 0.75})

	ctx := context.Background()
	for i := int32(0); i < 3; i++ {
		r := vote.Report{Src: 1, Epoch: 0, Seq: i, Path: []topology.LinkID{1, 2}}
		if err := cli.SendReport(ctx, r, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendToken(ctx, Token{Cycle: 0, Live: true,
		Counts: []AgentCount{{Agent: 1, N: 3}}, Summary: &EpochSummary{Epoch: 0}}); err != nil {
		t.Fatal(err)
	}
	seq := <-tokenSeq
	if err := srv.Commit(0, map[uint64]uint64{7: seq}); err != nil {
		t.Fatal(err)
	}
	srv.SendCycleEnd(7, CycleEnd{Cycle: 0, Retries: []RetryReq{{Agent: 1, Epoch: 0, Seq: 2, Attempt: 1}}})
	ce, err := cli.WaitCycleEnd(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Cycle != 0 || len(ce.Retries) != 1 || ce.Retries[0].Seq != 2 {
		t.Fatalf("cycle end = %+v", ce)
	}
	// The Ack preceded the CycleEnd on the same connection, so by now the
	// replay buffer is empty and the durable watermark covers the token.
	if cli.Buffered() != 0 || cli.durable != seq {
		t.Fatalf("buffered %d, durable %d, want 0 and %d", cli.Buffered(), cli.durable, seq)
	}
	reports, tokens := h.snapshot()
	if len(reports) != 3 || len(tokens) != 1 {
		t.Fatalf("handler saw %d reports, %d tokens; want 3, 1", len(reports), len(tokens))
	}
	// Nothing was cut, so nothing was replayed — not even the first frame,
	// which goes out through Connect.
	if got := cli.ctr.FramesResent.Load(); got != 0 {
		t.Fatalf("FramesResent = %d on a fault-free session, want 0", got)
	}
	h.mu.Lock()
	hello := h.hellos[0]
	h.mu.Unlock()
	if hello.ThresholdFrac != 0.75 {
		t.Fatalf("hello = %+v", hello)
	}

	// A clean Bye reaches the handler once, however many connections of the
	// session bring one: here the client's, then a second one's, which the
	// server has handled once it hangs up.
	cli.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(append(Frame(AppendHello(nil, Hello{Version: Version, Session: 7})), Frame(AppendControl(nil, TypeBye))...))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept the second connection open after its Bye: %v", err)
	}
	byes := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.byes
	}
	for deadline := time.Now().Add(2 * time.Second); byes() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	srv.Close() // every reader has returned
	if n := byes(); n != 1 {
		t.Fatalf("the handler saw %d byes, want 1", n)
	}
}

// A handler call that ends its goroutine (runtime.Goexit, as the ingest
// crash sweep kills a collector) takes its connection down, not its
// session: the processing lock is released on the way out, so the agent's
// reconnect resumes past the frame being handled and the next token
// reaches the handler.
func TestHandlerGoexitReleasesSession(t *testing.T) {
	h := &recHandler{}
	cycles := make(chan int32, 4)
	h.onToken = func(sess, seq uint64, tok Token) {
		if tok.Cycle == 0 {
			runtime.Goexit()
		}
		cycles <- tok.Cycle
	}
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 7})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for cycle := int32(0); cycle < 2; cycle++ {
		if err := cli.SendToken(ctx, Token{Cycle: cycle}); err != nil {
			t.Fatal(err)
		}
	}
	waited := make(chan error, 1)
	go func() {
		_, err := cli.WaitCycleEnd(ctx, 1)
		waited <- err
	}()
	select {
	case c := <-cycles:
		if c != 1 {
			t.Fatalf("the handler got cycle %d's token, want 1's", c)
		}
	case <-ctx.Done():
		t.Fatal("the token after the killed call never reached the handler: the session stayed locked")
	}
	srv.SendCycleEnd(7, CycleEnd{Cycle: 1})
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if got := cli.ctr.Resumes.Load(); got != 1 {
		t.Fatalf("Resumes = %d, want 1", got)
	}
}

// A severed connection loses nothing: unacked frames are replayed on
// resume, already-processed frames are deduplicated by the server's
// watermark, and the handler sees each sequence number exactly once.
func TestResumeReplaysExactlyOnce(t *testing.T) {
	h := &recHandler{}
	tokenSeq := make(chan uint64, 1)
	h.onToken = func(sess, seq uint64, tok Token) { tokenSeq <- seq }
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 1})

	ctx := context.Background()
	for i := int32(0); i < 4; i++ {
		if err := cli.SendReport(ctx, vote.Report{Src: 2, Seq: i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is committed yet, so every frame is still buffered.
	if cli.Buffered() != 4 {
		t.Fatalf("buffered %d, want 4", cli.Buffered())
	}
	// Sever the wire out from under the client. The next flush — the token's
	// — hits the dead socket, reconnects, and replays everything past the
	// server's resume watermark; the server drops what it already processed.
	cli.conn.Close()
	if err := cli.SendReport(ctx, vote.Report{Src: 2, Seq: 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cli.SendToken(ctx, Token{Cycle: 0, Live: true}); err != nil {
		t.Fatal(err)
	}
	if got := cli.ctr.Resumes.Load(); got != 1 {
		t.Fatalf("Resumes = %d, want 1", got)
	}
	seq := <-tokenSeq
	if err := srv.Commit(0, map[uint64]uint64{1: seq}); err != nil {
		t.Fatal(err)
	}
	srv.SendCycleEnd(1, CycleEnd{Cycle: 0})
	if _, err := cli.WaitCycleEnd(ctx, 0); err != nil {
		t.Fatal(err)
	}

	if got := cli.ctr.Reconnects.Load(); got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
	reports, _ := h.snapshot()
	seen := map[int32]int{}
	for _, f := range reports {
		seen[f.R.Seq]++
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("report seq %d delivered %d times", s, n)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct reports arrived, want >= 5", len(seen))
	}
}

// A restarted server resumes sessions from the checkpoint: durable
// watermarks survive, the client replays only what the checkpoint does
// not cover, and pre-durable frames are never re-delivered as new.
func TestServerRestartFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	h1 := &recHandler{}
	tokenSeq := make(chan uint64, 1)
	h1.onToken = func(sess, seq uint64, tok Token) { tokenSeq <- seq }
	srv1 := newTestServer(t, h1, ServerConfig{CheckpointPath: path, AppFresh: -1})
	cli := newTestClient(t, srv1.Addr(), ClientConfig{Session: 5})

	ctx := context.Background()
	if err := cli.SendReport(ctx, vote.Report{Src: 1, Seq: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cli.SendToken(ctx, Token{Cycle: 0, Live: true}); err != nil {
		t.Fatal(err)
	}
	seq := <-tokenSeq
	if err := srv1.Commit(3, map[uint64]uint64{5: seq}); err != nil {
		t.Fatal(err)
	}
	// Send one more frame the checkpoint does NOT cover, then crash.
	if err := cli.SendReport(ctx, vote.Report{Src: 1, Seq: 1}, 0); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	h2 := &recHandler{}
	srv2 := newTestServer(t, h2, ServerConfig{CheckpointPath: path, AppFresh: -1})
	if got := srv2.AppState(); got != 3 {
		t.Fatalf("restarted AppState = %d, want 3", got)
	}
	if ids := srv2.SessionIDs(); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("restarted sessions = %v, want [5]", ids)
	}
	// Point the client at the new incarnation (same logical address role).
	cli.cfg.Addr = srv2.Addr()
	cli.dropConn()
	if err := cli.SendReport(ctx, vote.Report{Src: 1, Seq: 2}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		reports, _ := h2.snapshot()
		if len(reports) >= 2 {
			// Replay delivered exactly the post-checkpoint frames: seq 1
			// (unacked at the crash) and seq 2 — never seq 0 or the token.
			seen := map[int32]bool{}
			for _, f := range reports {
				seen[f.R.Seq] = true
			}
			if seen[0] || !seen[1] || !seen[2] || len(reports) != 2 {
				t.Fatalf("restart replay delivered %+v", reports)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted server never saw the replay; got %+v", reports)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, tokens := h2.snapshot(); len(tokens) != 0 {
		t.Fatal("durably-acked token re-delivered after restart")
	}
	// The resume replayed the two post-checkpoint frames and counted those.
	if got := cli.ctr.FramesResent.Load(); got != 2 {
		t.Fatalf("FramesResent = %d, want the 2 frames replayed", got)
	}
}

// flakyListener fails its first n Accepts with a transient error; the
// accept loop must retry with backoff, not exit.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	fail int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fail > 0 {
		l.fail--
		l.mu.Unlock()
		return nil, fmt.Errorf("accept: transient resource exhaustion")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &recHandler{}
	srv, err := Serve(ServerConfig{Listener: &flakyListener{Listener: ln, fail: 3}, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := newTestClient(t, ln.Addr().String(), ClientConfig{Session: 2})
	if err := cli.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.ctr.AcceptRetries.Load(); got != 3 {
		t.Fatalf("AcceptRetries = %d, want 3", got)
	}
}

// The send window is a hard bound: a client racing unboundedly ahead of
// the collector's durable watermark is an error, not silent growth.
func TestSendWindowBounded(t *testing.T) {
	h := &recHandler{}
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{Session: 3, Window: 2})

	ctx := context.Background()
	for i := int32(0); i < 2; i++ {
		if err := cli.SendReport(ctx, vote.Report{Seq: i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendReport(ctx, vote.Report{Seq: 2}, 0); err == nil {
		t.Fatal("send beyond the window succeeded")
	}
}

// A lost cycle-end is recovered without losing lockstep: the client
// re-sends its token, the server sees it as stale and answers with the
// stored newest cycle-end.
func TestLostCycleEndRecovered(t *testing.T) {
	h := &recHandler{}
	gotToken := make(chan struct{}, 1)
	h.onToken = func(sess, seq uint64, tok Token) {
		select {
		case gotToken <- struct{}{}:
		default:
		}
	}
	srv := newTestServer(t, h, ServerConfig{})
	cli := newTestClient(t, srv.Addr(), ClientConfig{
		Session: 4, WaitPoll: 5 * time.Millisecond, TokenResendEvery: 2, DeadPolls: 1000,
	})

	ctx := context.Background()
	if err := cli.SendToken(ctx, Token{Cycle: 0, Live: true}); err != nil {
		t.Fatal(err)
	}
	<-gotToken
	// Deliver the cycle-end only after a stale token re-send proves the
	// recovery path ran: SendCycleEnd stores it, and the NEXT stale token
	// triggers the server-side re-send.
	go func() {
		deadline := time.Now().Add(2 * time.Second)
		for srv.ctr.Discards[metrics.FrameStale].Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		srv.SendCycleEnd(4, CycleEnd{Cycle: 0})
	}()
	if _, err := cli.WaitCycleEnd(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if cli.ctr.TokenResends.Load() == 0 {
		t.Fatal("cycle-end arrived without any token re-send")
	}
	if srv.ctr.Discards[metrics.FrameStale].Load() == 0 {
		t.Fatal("server never saw the stale token re-send")
	}
}

// Reconnect backoff is exponential, capped, and jittered inside [d/2, d].
func TestBackoffShape(t *testing.T) {
	cli, err := NewClient(ClientConfig{
		Addr: "127.0.0.1:1", Session: 9, Seed: 3,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt, want := range []time.Duration{10, 20, 40, 80, 80, 80} {
		wantD := want * time.Millisecond
		d := cli.backoff(attempt)
		if d < wantD/2 || d > wantD {
			t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, wantD/2, wantD)
		}
	}
}

// Dial failures surface as counted retries, and a context cancellation
// ends the dial loop instead of spinning forever.
func TestConnectFailureAndCancel(t *testing.T) {
	// A listener we immediately close: dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cli := newTestClient(t, addr, ClientConfig{Session: 8, DialTimeout: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := cli.Connect(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Connect = %v, want context deadline", err)
	}
	if cli.ctr.DialFailures.Load() == 0 {
		t.Fatal("no dial failures counted")
	}
}

// collect reads frames from a raw connection until EOF, recording types
// and report sequence numbers.
func collect(t *testing.T, ln net.Listener, types *[]byte, seqs *[]uint64, mu *sync.Mutex, done chan<- struct{}) {
	t.Helper()
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			typ, payload, err := ReadFrame(br, 0)
			if err != nil {
				return
			}
			mu.Lock()
			*types = append(*types, typ)
			if seq, ok := SeqOf(typ, payload); ok {
				*seqs = append(*seqs, seq)
			}
			mu.Unlock()
		}
	}()
}

// The proxy's fates are deterministic per (connection, frame) and the
// injection ledger matches what the target observes.
func TestProxyFates(t *testing.T) {
	newTarget := func(t *testing.T) (net.Listener, *[]byte, *[]uint64, *sync.Mutex, chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		var types []byte
		var seqs []uint64
		var mu sync.Mutex
		done := make(chan struct{})
		collect(t, ln, &types, &seqs, &mu, done)
		return ln, &types, &seqs, &mu, done
	}
	sendReports := func(t *testing.T, addr string, n int) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(Frame(AppendHello(nil, Hello{Version: Version, Session: 1})))
		for i := 1; i <= n; i++ {
			conn.Write(Frame(AppendReport(nil, Report{Seq: uint64(i)})))
		}
		time.Sleep(50 * time.Millisecond) // let the pump drain before EOF
		conn.Close()
	}

	t.Run("drop", func(t *testing.T) {
		ln, types, _, mu, done := newTarget(t)
		p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: ln.Addr().String(), Seed: 1, Drop: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		sendReports(t, p.Addr(), 5)
		<-done
		mu.Lock()
		defer mu.Unlock()
		// Every sequenced frame dropped; only the Hello got through.
		if len(*types) != 1 || (*types)[0] != TypeHello {
			t.Fatalf("target saw %v, want only the hello", *types)
		}
		if got := p.InjDrops.Load(); got != 5 {
			t.Fatalf("InjDrops = %d, want 5", got)
		}
	})

	t.Run("dup", func(t *testing.T) {
		ln, _, seqs, mu, done := newTarget(t)
		p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: ln.Addr().String(), Seed: 1, Dup: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		sendReports(t, p.Addr(), 4)
		<-done
		mu.Lock()
		defer mu.Unlock()
		if len(*seqs) != 8 {
			t.Fatalf("target saw %d sequenced frames, want 8 (each doubled)", len(*seqs))
		}
		if got := p.InjDups.Load(); got != 4 {
			t.Fatalf("InjDups = %d, want 4", got)
		}
	})

	t.Run("reorder", func(t *testing.T) {
		ln, _, seqs, mu, done := newTarget(t)
		p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: ln.Addr().String(), Seed: 1, Reorder: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		sendReports(t, p.Addr(), 4)
		<-done
		mu.Lock()
		defer mu.Unlock()
		// Every odd frame is held one slot: 1,2,3,4 arrives as 2,1,4,3.
		want := []uint64{2, 1, 4, 3}
		if len(*seqs) != 4 {
			t.Fatalf("target saw %d sequenced frames, want 4", len(*seqs))
		}
		for i, s := range *seqs {
			if s != want[i] {
				t.Fatalf("reordered stream = %v, want %v", *seqs, want)
			}
		}
		if got := p.InjReorders.Load(); got != 2 {
			t.Fatalf("InjReorders = %d, want 2", got)
		}
	})

	t.Run("cut", func(t *testing.T) {
		ln, types, _, mu, done := newTarget(t)
		p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: ln.Addr().String(), Seed: 1, Cut: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		sendReports(t, p.Addr(), 3)
		<-done
		mu.Lock()
		defer mu.Unlock()
		// Frame 1 (the hello) is never cut; frame 2 is cut mid-frame, so
		// the target's framer errors out after the hello.
		if len(*types) != 1 || (*types)[0] != TypeHello {
			t.Fatalf("target saw %v, want only the hello before the cut", *types)
		}
		if got := p.InjCuts.Load(); got != 1 {
			t.Fatalf("InjCuts = %d, want 1", got)
		}
	})

	t.Run("partition", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					buf := make([]byte, 1024)
					for {
						if _, err := conn.Read(buf); err != nil {
							conn.Close()
							return
						}
					}
				}()
			}
		}()
		p, err := NewProxy("127.0.0.1:0", ProxyConfig{Target: ln.Addr().String(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(Frame(AppendHello(nil, Hello{Version: Version, Session: 1})))
		deadline := time.Now().Add(2 * time.Second)
		for p.Live() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("pair never registered")
			}
			time.Sleep(time.Millisecond)
		}
		if cut := p.Partition(); cut != 1 {
			t.Fatalf("Partition cut %d pairs, want 1", cut)
		}
		// The severed side sees EOF.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("read on a partitioned connection succeeded")
		}
		// New connections are refused (accepted then dropped) while
		// partitioned, and flow again after Heal.
		c2, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c2.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c2.Read(make([]byte, 1)); err == nil {
			t.Fatal("read on a connection dialed during partition succeeded")
		}
		c2.Close()
		p.Heal()
		c3, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c3.Write(Frame(AppendHello(nil, Hello{Version: Version, Session: 2})))
		deadline = time.Now().Add(2 * time.Second)
		for p.Live() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("healed proxy never forwarded a new connection")
			}
			time.Sleep(time.Millisecond)
		}
		c3.Close()
	})
}

// Config validation and handshake rejection paths.
func TestHandshakeValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("client without Addr accepted")
	}
	if _, err := Serve(ServerConfig{}); err == nil {
		t.Fatal("server without listener/handler accepted")
	}

	h := &recHandler{}
	srv := newTestServer(t, h, ServerConfig{})
	// A connection that opens with a non-Hello frame is rejected.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(Frame(AppendControl(nil, TypePing)))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a connection that never said hello")
	}
	conn.Close()
	// A wrong protocol version is rejected before any state is touched.
	conn, err = net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(Frame(AppendHello(nil, Hello{Version: 99, Session: 1})))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server accepted an unknown protocol version")
	}
	conn.Close()
	h.mu.Lock()
	nHellos := len(h.hellos)
	h.mu.Unlock()
	if nHellos != 0 {
		t.Fatal("rejected handshakes reached the handler")
	}
	srv.Close() // waits for both connections' goroutines
	if got := srv.ctr.Discards[metrics.FrameMalformed].Load(); got != 2 {
		t.Fatalf("%d malformed frames counted for the two bad handshakes, want 2", got)
	}
}

// A peer whose length prefix promises DefaultMaxFrame+1 bytes loses its
// connection before the server allocates a body for it, and the server
// goes on serving other connections.
func TestServerRejectsOversizeFrame(t *testing.T) {
	srv := newTestServer(t, &recHandler{}, ServerConfig{})
	handshake := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(Frame(AppendHello(nil, Hello{Version: Version, Session: 1})))
		br := bufio.NewReader(conn)
		if typ, _, err := ReadFrame(br, 0); err != nil || typ != TypeHelloAck {
			t.Fatalf("handshake answered with type %d, %v", typ, err)
		}
		return conn, br
	}
	conn, br := handshake()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prefix := binary.LittleEndian.AppendUint32(nil, DefaultMaxFrame+1)
	conn.Write(append(prefix, TypeReport))
	_, err := io.Copy(io.Discard, br) // nil at EOF; a reset is a close too
	runtime.ReadMemStats(&after)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the server kept a connection whose frame is over the limit")
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Fatalf("refusing an oversize frame allocated %d bytes", spent)
	}

	handshake() // the next connection is served as usual
}
