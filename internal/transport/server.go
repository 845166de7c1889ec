package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vigil/internal/metrics"
	"vigil/internal/vote"
)

// Handler receives the decoded, deduplicated frame stream, on the reader
// goroutine of the connection that brought each frame. Calls for one
// session are serialized (the per-session processing lock covers the brief
// overlap of an old and a new connection during a resume); calls for
// different sessions are concurrent, so a handler that needs a total order
// takes a lock of its own. A call may block — that session's reader, and
// TCP behind it, waits — and may end its goroutine (runtime.Goexit): the
// processing lock is released on every way out.
type Handler interface {
	// OnHello runs once per (re)connection, after the session watermark
	// check but before any of the connection's frames.
	OnHello(sess uint64, h Hello)
	// OnReport delivers one non-stale report.
	OnReport(sess uint64, r vote.Report, attempt uint8)
	// OnToken delivers one non-stale cycle token. seq is the frame's
	// session sequence — the durable mark a Commit may later ack.
	OnToken(sess uint64, seq uint64, t Token)
	// OnBye runs when the session ends cleanly.
	OnBye(sess uint64)
}

// ServerConfig parametrizes a collector-side transport server.
type ServerConfig struct {
	// Listener is the accept socket; required. The server owns it.
	Listener net.Listener
	// Handler receives the frame stream; required.
	Handler Handler
	// CheckpointPath enables crash recovery: Serve opens (or creates) the
	// two-slot checkpoint file there and loads it, so a restarted collector
	// resumes sessions from their last durable state, and Commit writes the
	// durable watermarks into it. Empty disables durability (acks then mean
	// "settled", not "settled and on disk").
	CheckpointPath string
	// AppFresh is the application watermark of a fresh (no checkpoint
	// file) start; the ingest collector uses -1 (nothing settled).
	AppFresh int64
	// Counters receives the transport's observable state; one is
	// allocated when nil.
	Counters *metrics.TransportCounters
}

const (
	// readTimeout bounds the silence tolerated on a connection before it is
	// presumed dead and closed (the session survives; the agent
	// reconnects). Agents heartbeat well inside it.
	readTimeout = 15 * time.Second
	// writeTimeout bounds each outbound frame write.
	writeTimeout = 10 * time.Second
	// outbox bounds each connection's outbound send window, in frames: when
	// it is full the frame is shed (acks are cumulative and cycle-ends are
	// recovered by the token-resend path, so shedding is safe) instead of
	// buffering without bound.
	outbox = 32
)

// session is one agent's durable state at the server. It outlives any
// individual connection.
type session struct {
	id uint64

	// procMu serializes frame processing (watermark check + handler call)
	// across the brief overlap of an old and a new connection.
	procMu  sync.Mutex
	recv    uint64 // processed watermark: highest sequenced frame handled
	durable uint64 // durable watermark: highest frame covered by Commit

	mu     sync.Mutex // guards conn/out/gen/lastCE/bye
	conn   net.Conn
	out    chan []byte
	gen    int
	lastCE []byte // framed CycleEnd, re-sent on resume and on stale tokens
	bye    bool
}

// Server accepts resumable agent sessions and feeds their frames to a
// Handler.
type Server struct {
	cfg ServerConfig
	ctr *metrics.TransportCounters
	ln  net.Listener

	mu       sync.Mutex
	sessions map[uint64]*session
	app      int64
	closed   bool

	wg sync.WaitGroup

	// ckptMu serializes checkpoint commits with each other and with Close.
	ckptMu    sync.Mutex
	ckpt      *checkpoint // nil without a CheckpointPath, and once closed
	ckptMarks []sessMark  // the sessions' marks of the commit in progress, reused
}

// Serve builds a server on cfg.Listener, loading the checkpoint (if
// configured) so sessions resume from their durable watermarks, and starts
// accepting.
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.Listener == nil || cfg.Handler == nil {
		return nil, fmt.Errorf("transport: ServerConfig.Listener and Handler are required")
	}
	s := &Server{
		cfg:      cfg,
		ctr:      cfg.Counters,
		ln:       cfg.Listener,
		sessions: make(map[uint64]*session),
		app:      cfg.AppFresh,
	}
	if s.ctr == nil {
		s.ctr = &metrics.TransportCounters{}
	}
	if cfg.CheckpointPath != "" {
		ck, st, err := openCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		s.ckpt = ck
		if st.gen > 0 {
			s.app = st.app
		}
		for _, m := range st.marks {
			s.sessions[m.sess] = &session{id: m.sess, recv: m.durable, durable: m.durable}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AppState returns the application watermark loaded from the checkpoint
// (AppFresh when none existed) — the restarted ingest collector's last
// settled epoch.
func (s *Server) AppState() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.app
}

// SessionIDs returns the IDs of every known session — after Serve, the
// sessions loaded from the checkpoint; later also sessions that connected.
func (s *Server) SessionIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	return ids
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// acceptLoop accepts until the listener closes. Transient accept errors
// (EMFILE, ECONNABORTED, ...) are retried with capped exponential backoff
// rather than killing the collector's front door.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.ctr.AcceptRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = time.Millisecond
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// sessionFor returns (creating if needed) the session record for id.
func (s *Server) sessionFor(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{id: id}
		s.sessions[id] = sess
	}
	return sess
}

// attach makes conn the session's live connection: any previous connection
// is closed (its reader and writer unwind), a fresh bounded outbox and
// writer start, and the handshake answer plus any pending cycle-end are
// queued.
func (s *Server) attach(sess *session, conn net.Conn) (gen int) {
	sess.procMu.Lock()
	resume := sess.recv
	sess.procMu.Unlock()

	sess.mu.Lock()
	durable := sess.durable
	if sess.conn != nil {
		sess.conn.Close()
		close(sess.out) // the old writer drains and exits
	} else {
		s.ctr.SessionsConnected.Add(1)
	}
	sess.gen++
	gen = sess.gen
	sess.conn = conn
	sess.out = make(chan []byte, outbox)
	out := sess.out
	lastCE := sess.lastCE
	sess.mu.Unlock()

	s.wg.Add(1)
	go s.writer(conn, out)

	s.enqueue(sess, gen, Frame(AppendHelloAck(nil, HelloAck{Resume: resume, Durable: durable})))
	if lastCE != nil {
		// The cycle may have ended while the agent was away; the stale
		// re-send is ignored by an agent that already saw it.
		s.enqueue(sess, gen, lastCE)
		s.ctr.CycleEndsSent.Add(1)
	}
	return gen
}

// detach clears the session's live connection if it is still generation
// gen, closing its outbox so the writer goroutine exits.
func (s *Server) detach(sess *session, gen int) {
	sess.mu.Lock()
	if sess.gen == gen && sess.conn != nil {
		sess.conn.Close()
		close(sess.out)
		sess.conn = nil
		sess.out = nil
		s.ctr.SessionsConnected.Add(-1)
	}
	sess.mu.Unlock()
}

// enqueue offers a framed message to the session's current outbox (if the
// connection generation still matches); a full outbox sheds the frame —
// bounded memory beats unbounded buffering, and every shed frame is
// recoverable (acks are cumulative, cycle-ends ride the token-resend
// path, pongs are heartbeats).
func (s *Server) enqueue(sess *session, gen int, framed []byte) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.conn == nil || (gen >= 0 && sess.gen != gen) {
		return
	}
	select {
	case sess.out <- framed:
	default:
		s.ctr.Discards[metrics.FrameSendWindow].Add(1)
	}
}

// writer drains one connection's outbox onto the socket.
func (s *Server) writer(conn net.Conn, out chan []byte) {
	defer s.wg.Done()
	for framed := range out {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(framed); err != nil {
			conn.Close() // unwinds the reader; the agent reconnects
			// Keep draining so enqueuers never block on a dead conn.
			for range out {
			}
			return
		}
	}
}

// readBuffer sizes a connection's read buffer to hold a few client bursts
// (client.go's flushBytes) and the token that ends a cycle whole, so one
// read(2) brings in a burst and its frames are decoded where they land.
const readBuffer = 64 << 10

// handle runs one connection, counting the unusable frame it may end on.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if s.serve(conn) {
		s.ctr.Discards[metrics.FrameMalformed].Add(1)
	}
}

// serve runs one connection: handshake, then the frame loop. The loop
// decodes every whole frame already buffered before it looks at the
// connection again — the read deadline is pushed only when a read is about
// to block — and decodes reports without an allocation per frame. It
// reports whether it ended on an unusable frame (see metrics.FrameMalformed).
func (s *Server) serve(conn net.Conn) (unusable bool) {
	fr := frameReader{br: bufio.NewReaderSize(conn, readBuffer), conn: conn, timeout: readTimeout}

	typ, payload, err := fr.next()
	if err != nil || typ != TypeHello {
		conn.Close()
		return err == nil || errors.Is(err, errFrameLength)
	}
	hello, err := DecodeHello(payload)
	if err != nil || hello.Version != Version {
		conn.Close()
		return true
	}
	sess := s.sessionFor(hello.Session)
	gen := s.attach(sess, conn)
	defer s.detach(sess, gen)
	// Under procMu like every other call for the session: the connection
	// this one replaced may still be working through frames it had buffered.
	sess.locked(func() { s.cfg.Handler.OnHello(hello.Session, hello) })

	var paths linkArena
	for {
		typ, payload, err := fr.next()
		if err != nil {
			return errors.Is(err, errFrameLength)
		}
		switch typ {
		case TypeReport:
			f, err := decodeReport(payload, &paths)
			if err != nil {
				return true
			}
			sess.locked(func() {
				if s.fresh(sess, f.Seq) {
					s.cfg.Handler.OnReport(sess.id, f.R, f.Attempt)
				}
			})
		case TypeToken:
			t, err := DecodeToken(payload)
			if err != nil {
				return true
			}
			sess.locked(func() {
				if s.fresh(sess, t.Seq) {
					s.cfg.Handler.OnToken(sess.id, t.Seq, t)
					return
				}
				// A re-sent token means the agent never saw the cycle-end;
				// re-send the newest one.
				sess.mu.Lock()
				lastCE := sess.lastCE
				sess.mu.Unlock()
				if lastCE != nil {
					s.enqueue(sess, gen, lastCE)
					s.ctr.CycleEndsSent.Add(1)
				}
			})
		case TypePing:
			s.enqueue(sess, gen, Frame(AppendControl(nil, TypePong)))
		case TypeBye:
			s.bye(sess)
			return false
		default:
			// Unknown frame from a same-version client: protocol error.
			return true
		}
	}
}

// locked runs fn under the session's processing lock, which it releases on
// every way out of fn — a handler that ends its goroutine included.
func (sess *session) locked(fn func()) {
	sess.procMu.Lock()
	defer sess.procMu.Unlock()
	fn()
}

// fresh advances the session's processed watermark to seq and reports
// true, or counts the frame stale (a duplicate too: the watermark cannot
// tell them apart) and reports false. The caller holds procMu.
func (s *Server) fresh(sess *session, seq uint64) bool {
	if seq <= sess.recv {
		s.ctr.Discards[metrics.FrameStale].Add(1)
		return false
	}
	sess.recv = seq
	s.ctr.FramesReceived.Add(1)
	return true
}

// bye hands the handler the session's goodbye, once however many
// connections bring one.
func (s *Server) bye(sess *session) {
	sess.mu.Lock()
	first := !sess.bye
	sess.bye = true
	sess.mu.Unlock()
	if first {
		sess.locked(func() { s.cfg.Handler.OnBye(sess.id) })
	}
}

// SendCycleEnd records ce as the session's newest cycle-end and offers it
// to the live connection. The record is what makes cycle-ends loss-proof:
// it is re-sent on resume and whenever a stale token re-send signals the
// agent missed it.
func (s *Server) SendCycleEnd(sessID uint64, ce CycleEnd) {
	sess := s.sessionFor(sessID)
	framed := Frame(AppendCycleEnd(nil, ce))
	sess.mu.Lock()
	sess.lastCE = framed
	sess.mu.Unlock()
	s.enqueue(sess, -1, framed)
	s.ctr.CycleEndsSent.Add(1)
}

// Commit advances durability: app is the new application watermark (the
// ingest collector's last settled epoch) and marks gives, per session, the
// frame sequence now fully reflected in settled state. The checkpoint's
// data sync has returned BEFORE any watermark advances or any ack goes out,
// so an acked frame is always recoverable: either it is reflected in the
// checkpoint the restarted collector loads, or the agent still holds it.
func (s *Server) Commit(app int64, marks map[uint64]uint64) error {
	s.mu.Lock()
	s.app = app
	s.mu.Unlock()
	if s.cfg.CheckpointPath != "" {
		if err := s.checkpoint(app, marks); err != nil {
			return err
		}
	}
	for id, mark := range marks {
		sess := s.sessionFor(id)
		sess.mu.Lock()
		if mark > sess.durable {
			sess.durable = mark
		}
		durable := sess.durable
		sess.mu.Unlock()
		var body [9]byte // an ack's type and mark: Frame's copy is the one allocation
		s.enqueue(sess, -1, Frame(AppendAck(body[:0], Ack{Durable: durable})))
		s.ctr.AcksSent.Add(1)
	}
	return nil
}

// checkpoint writes the durable state a Commit is about to ack: every known
// session at the higher of its durable mark and the mark being committed.
func (s *Server) checkpoint(app int64, marks map[uint64]uint64) error {
	start := time.Now()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.ckpt == nil {
		return fmt.Errorf("transport: checkpoint %s: server closed", s.cfg.CheckpointPath)
	}
	durable := s.ckptMarks[:0]
	s.mu.Lock()
	for id, sess := range s.sessions {
		sess.mu.Lock()
		d := sess.durable
		sess.mu.Unlock()
		if mark, ok := marks[id]; ok && mark > d {
			d = mark
		}
		durable = append(durable, sessMark{id, d})
	}
	s.mu.Unlock()
	s.ckptMarks = durable
	if err := s.ckpt.commit(app, durable); err != nil {
		return err
	}
	end := time.Now()
	s.ctr.Checkpoints.Add(1)
	s.ctr.CheckpointCommitNanos.Add(int64(end.Sub(start)))
	s.ctr.CheckpointUnixNano.Store(end.UnixNano())
	return nil
}

// Close shuts the listener and every connection down, waits for the
// server's goroutines and closes the checkpoint file. Session state is NOT
// checkpointed here — durability is Commit's job — so closing a server
// without a final Commit is exactly the crash the recovery path handles.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	defer func() {
		s.ckptMu.Lock()
		if s.ckpt != nil {
			// Every commit ended in its own data sync; Close has nothing to flush.
			s.ckpt.file.Close()
			s.ckpt = nil
		}
		s.ckptMu.Unlock()
	}()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.conn != nil {
			sess.conn.Close()
		}
		sess.mu.Unlock()
	}
	// Closing a conn unwinds its reader, whose deferred detach closes the
	// outbox, which lets the writer exit; the re-close loop below catches
	// any connection that attached between the snapshot and ln.Close.
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return err
		case <-time.After(10 * time.Millisecond):
			s.mu.Lock()
			for _, sess := range s.sessions {
				sess.mu.Lock()
				if sess.conn != nil {
					sess.conn.Close()
				}
				sess.mu.Unlock()
			}
			s.mu.Unlock()
		}
	}
}
