package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"vigil/internal/metrics"
	"vigil/internal/stats"
	"vigil/internal/vote"
)

// ClientConfig parametrizes one agent-side resumable session.
type ClientConfig struct {
	// Addr is the collector (or fault proxy) address; required.
	Addr string
	// Session identifies this agent session across reconnects; required
	// to be stable for the life of the ingest run.
	Session uint64
	// ThresholdFrac rides the Hello frame so the collector analyzes with
	// the engine's Algorithm 1 threshold.
	ThresholdFrac float64
	// Test hook: DialTimeout bounds each TCP dial, so that a test can
	// shorten it. 0 means 5s.
	DialTimeout time.Duration
	// Test hook: WaitPoll is the read-poll granularity while waiting for a
	// cycle-end: each expiry sends a heartbeat and every few expiries
	// re-sends the cycle token (recovering a lost cycle-end). Chaos tests
	// shorten it to recover fast. 0 means 250ms.
	WaitPoll time.Duration
	// Test hook: TokenResendEvery is the number of WaitPoll expiries
	// between token re-sends, so that a test can make every poll re-send.
	// 0 means 4.
	TokenResendEvery int
	// Test hook: DeadPolls is the number of consecutive silent polls after
	// which the connection is presumed dead and rebuilt, so that a test
	// with short polls can keep its connection. 0 means 40.
	DeadPolls int
	// Test hook: BackoffBase is the first reconnect backoff (exponential,
	// seeded jitter), so that a test can reconnect sooner. 0 means 20ms.
	BackoffBase time.Duration
	// Test hook: BackoffMax caps the reconnect backoff, so that a test can
	// bound its waits. 0 means 2s.
	BackoffMax time.Duration
	// Seed derives the jitter substream (stats.DeriveRNG), keeping chaos
	// runs reproducible.
	Seed uint64
	// Test hook: Window bounds the unacknowledged-frame buffer: the client
	// refuses to race further ahead of the collector's durable watermark.
	// 0 means 1<<16 frames; a test sets a small one to see the bound hold.
	Window int
	// Test hook: Dial overrides the dialer, so that a test can wrap the
	// connection it dials (one that tears a write in half, say).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Counters receives the transport's observable state; one is
	// allocated when nil.
	Counters *metrics.TransportCounters
}

// ioTimeout bounds each frame write, the handshake read, and how long a
// frame may stay partially read before the connection is presumed dead.
const ioTimeout = 10 * time.Second

// flushBytes is how much unflushed arena triggers a write in the middle of
// a cycle. It trades write(2) calls against how far the collector trails
// the agent when the cycle's token goes out: see DESIGN.md, "wire cost
// model", for the sizes measured.
const flushBytes = 16 << 10

// Client is one resumable agent session. It is synchronous and
// single-goroutine by design: the ingest agent loop alternates
// SendReport/SendToken with WaitCycleEnd, mirroring the lockstep cycle
// protocol, and every method transparently reconnects and replays on
// connection loss. Not safe for concurrent use.
type Client struct {
	cfg ClientConfig
	ctr *metrics.TransportCounters

	conn net.Conn
	br   *bufio.Reader

	nextSeq     uint64 // last assigned sequence number
	durable     uint64 // collector's durable watermark
	established bool   // a handshake has completed at least once

	// The replay buffer is one arena the client owns and reuses: every
	// sequenced frame not yet durably acked, framed back to back in the
	// order sent, encoded in place. Sequence numbers are consecutive and
	// the live frames are exactly durable+1..nextSeq — the last
	// nextSeq-durable entries of starts — so a frame's offset is a
	// subtraction away (offsetAfter) and an ack trims by moving durable;
	// the acked bytes in front stay until begin compacts.
	arena  []byte
	starts []int // arena offset of each frame since the last compaction
	sent   int   // arena[:sent] has gone out on the live connection

	lastToken []byte // copy of the newest token frame, for re-sends after its ack

	jitterN uint64
}

// NewClient builds a session; no connection is made until the first send
// (or an explicit Connect).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("transport: ClientConfig.Addr is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WaitPoll <= 0 {
		cfg.WaitPoll = 250 * time.Millisecond
	}
	if cfg.TokenResendEvery <= 0 {
		cfg.TokenResendEvery = 4
	}
	if cfg.DeadPolls <= 0 {
		cfg.DeadPolls = 40
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 1 << 16
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c := &Client{cfg: cfg, ctr: cfg.Counters}
	if c.ctr == nil {
		c.ctr = &metrics.TransportCounters{}
	}
	return c, nil
}

// Buffered returns the number of frames held for potential replay.
func (c *Client) Buffered() int { return int(c.nextSeq - c.durable) }

// offsetAfter returns the arena offset of the first live frame whose
// sequence number is above seq.
func (c *Client) offsetAfter(seq uint64) int {
	seq = max(seq, c.durable)
	if seq >= c.nextSeq {
		return len(c.arena)
	}
	return c.starts[len(c.starts)-int(c.nextSeq-seq)]
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// onAck trims the replay buffer up to the collector's durable watermark —
// the ONLY place frames leave the buffer. Trimming on anything weaker
// (say, the resume watermark) would lose frames if the collector crashed
// between processing and checkpointing them.
func (c *Client) onAck(durable uint64) {
	durable = min(durable, c.nextSeq) // nothing past nextSeq exists to forget
	if durable <= c.durable {
		return
	}
	c.durable = durable
	if durable == c.nextSeq {
		c.arena, c.starts, c.sent = c.arena[:0], c.starts[:0], 0
		return
	}
	c.sent = max(c.sent, c.offsetAfter(durable))
}

func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 0; i < attempt && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	// Seeded full-jitter on the top half keeps herds apart without
	// sacrificing reproducibility.
	c.jitterN++
	rng := stats.DeriveRNG(c.cfg.Seed, c.cfg.Session<<32|c.jitterN)
	return d/2 + time.Duration(rng.Intn(int(d/2)+1))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Connect establishes (or re-establishes) the session: dial with backoff,
// handshake, replay everything past the collector's resume watermark. The
// replayed frames STAY buffered until a durable ack covers them.
func (c *Client) Connect(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
dialing:
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			if err := sleepCtx(ctx, c.backoff(attempt-1)); err != nil {
				return err
			}
		}
		c.ctr.Dials.Add(1)
		conn, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			c.ctr.DialFailures.Add(1)
			continue
		}
		if c.established {
			c.ctr.Reconnects.Add(1)
		}
		conn.SetWriteDeadline(time.Now().Add(ioTimeout))
		hello := Hello{Version: Version, Session: c.cfg.Session, ThresholdFrac: c.cfg.ThresholdFrac}
		if _, err := conn.Write(Frame(AppendHello(nil, hello))); err != nil {
			conn.Close()
			c.ctr.DialFailures.Add(1)
			continue
		}
		br := bufio.NewReader(conn)
		conn.SetReadDeadline(time.Now().Add(ioTimeout))
		typ, payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil || typ != TypeHelloAck {
			conn.Close()
			c.ctr.DialFailures.Add(1)
			continue
		}
		ack, err := DecodeHelloAck(payload)
		if err != nil {
			conn.Close()
			c.ctr.DialFailures.Add(1)
			continue
		}
		if c.established {
			c.ctr.Resumes.Add(1)
		}
		// Replay every buffered frame the collector has not processed, in
		// one write. The first connection sends its first frame through
		// here too; that is not a replay.
		c.onAck(ack.Durable)
		if replay := c.arena[c.offsetAfter(ack.Resume):]; len(replay) > 0 {
			conn.SetWriteDeadline(time.Now().Add(ioTimeout))
			c.ctr.Writes.Add(1)
			if _, err := conn.Write(replay); err != nil {
				conn.Close()
				continue dialing
			}
			if c.established {
				c.ctr.FramesResent.Add(int64(c.nextSeq - max(ack.Resume, c.durable)))
			}
		}
		c.sent = len(c.arena)
		c.conn = conn
		c.br = br
		c.established = true
		return nil
	}
}

// begin opens the next sequenced frame at the arena's tail: the window
// check, compaction once the dead prefix outweighs the live frames (so each
// byte moves at most once per byte acked), and the length prefix's four
// bytes, which seal fills in.
func (c *Client) begin() error {
	if c.Buffered() >= c.cfg.Window {
		return fmt.Errorf("transport: session %d send window full (%d unacked frames)",
			c.cfg.Session, c.Buffered())
	}
	if dead := c.offsetAfter(c.durable); dead > 0 && dead >= len(c.arena)-dead {
		c.arena = c.arena[:copy(c.arena, c.arena[dead:])]
		live := c.starts[len(c.starts)-c.Buffered():]
		for i, at := range live {
			c.starts[i] = at - dead
		}
		c.starts, c.sent = c.starts[:len(live)], c.sent-dead
	}
	c.nextSeq++
	c.starts = append(c.starts, len(c.arena))
	c.arena = append(c.arena, 0, 0, 0, 0)
	return nil
}

// seal closes the frame begin opened and returns its bytes.
func (c *Client) seal() []byte {
	at := c.starts[len(c.starts)-1]
	binary.LittleEndian.PutUint32(c.arena[at:], uint32(len(c.arena)-at-4))
	c.ctr.FramesSent.Add(1)
	return c.arena[at:]
}

// ship sends a sealed frame on its way with the rest of the unflushed
// arena: now if flush is set or flushBytes have piled up, at the next flush
// point otherwise. Without a connection it connects, which replays the
// arena, this frame included.
func (c *Client) ship(ctx context.Context, flush bool) error {
	if c.conn == nil {
		return c.Connect(ctx)
	}
	if flush || len(c.arena)-c.sent >= flushBytes {
		return c.flush(ctx)
	}
	return nil
}

// write puts the unflushed suffix of the arena on the wire: one write, one
// deadline, however many frames.
func (c *Client) write() error {
	if c.sent == len(c.arena) {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	c.ctr.Writes.Add(1)
	if _, err := c.conn.Write(c.arena[c.sent:]); err != nil {
		return err
	}
	c.sent = len(c.arena)
	return nil
}

// flush is write with recovery: a failed write rebuilds the connection,
// and the resume replays whatever the collector had not processed.
func (c *Client) flush(ctx context.Context) error {
	if c.conn == nil {
		return nil // the next Connect replays everything unsent
	}
	if err := c.write(); err != nil {
		c.dropConn()
		return c.Connect(ctx)
	}
	return nil
}

// SendReport stages one vote report on the session's FIFO lane. It reaches
// the wire with its burst; nothing downstream can act on a report before
// its cycle's token, and SendToken always flushes.
func (c *Client) SendReport(ctx context.Context, r vote.Report, attempt uint8) error {
	if err := c.begin(); err != nil {
		return err
	}
	c.arena = AppendReport(c.arena, Report{Seq: c.nextSeq, Attempt: attempt, R: r})
	c.seal()
	return c.ship(ctx, false)
}

// SendToken ships the cycle token that closes this agent's side of the
// cycle, and with it everything staged before it. A copy of the frame is
// kept so WaitCycleEnd can re-send it (same sequence number — the collector
// treats the re-send as a stale frame and answers with the newest
// cycle-end) even after its ack has trimmed it from the arena.
func (c *Client) SendToken(ctx context.Context, t Token) error {
	if err := c.begin(); err != nil {
		return err
	}
	t.Seq = c.nextSeq
	c.arena = AppendToken(c.arena, t)
	c.lastToken = append(c.lastToken[:0], c.seal()...)
	return c.ship(ctx, true)
}

// WaitCycleEnd blocks until the collector ends cycle (processing acks and
// heartbeats along the way). Lost cycle-ends are recovered by periodically
// re-sending the cycle token; a silent connection is eventually presumed
// dead and rebuilt.
func (c *Client) WaitCycleEnd(ctx context.Context, cycle int32) (CycleEnd, error) {
	if err := c.flush(ctx); err != nil {
		return CycleEnd{}, err
	}
	// polls counts consecutive silent reads (reset by ANY inbound frame —
	// it detects a dead connection); ticks counts every timeout since the
	// wait began and drives the token-resend cadence. Keeping them separate
	// matters: a server answering pings resets polls on every pong, and a
	// resend cadence keyed to polls would then never fire — a cycle-end
	// shed from a full outbox would be lost forever on a healthy wire.
	polls, ticks := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return CycleEnd{}, err
		}
		if c.conn == nil {
			if err := c.Connect(ctx); err != nil {
				return CycleEnd{}, err
			}
			polls = 0
		}
		// Peek under the poll deadline: a timeout here has consumed no
		// bytes, so the frame stream stays in sync.
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.WaitPoll))
		_, err := c.br.Peek(1)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				polls++
				ticks++
				if polls >= c.cfg.DeadPolls {
					c.dropConn()
					continue
				}
				if ticks%c.cfg.TokenResendEvery == 0 && c.lastToken != nil {
					c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
					if _, werr := c.conn.Write(c.lastToken); werr != nil {
						c.dropConn()
						continue
					}
					c.ctr.TokenResends.Add(1)
				} else {
					c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
					if _, werr := c.conn.Write(Frame(AppendControl(nil, TypePing))); werr != nil {
						c.dropConn()
						continue
					}
					c.ctr.Pings.Add(1)
				}
				continue
			}
			c.dropConn()
			continue
		}
		// Data is ready; read the whole frame under the IO deadline — a
		// frame stuck half-delivered past it means a dead connection.
		c.conn.SetReadDeadline(time.Now().Add(ioTimeout))
		typ, payload, err := ReadFrame(c.br, DefaultMaxFrame)
		if err != nil {
			c.dropConn()
			continue
		}
		polls = 0
		switch typ {
		case TypeAck:
			a, err := DecodeAck(payload)
			if err != nil {
				c.dropConn()
				continue
			}
			c.onAck(a.Durable)
		case TypeCycleEnd:
			ce, err := DecodeCycleEnd(payload)
			if err != nil {
				c.dropConn()
				continue
			}
			if ce.Cycle == cycle {
				return ce, nil
			}
			// Stale cycle-end from a re-send race: ignore.
		case TypePong, TypeHelloAck:
			// Heartbeat answer / duplicate handshake echo: ignore.
		default:
			c.dropConn()
		}
	}
}

// Close flushes what is staged and says goodbye (both best effort), then
// drops the connection. The replay buffer is discarded: Close is for a
// session whose every frame has been durably acknowledged (or abandoned on
// purpose).
func (c *Client) Close() error {
	if c.conn != nil {
		if c.write() == nil {
			c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
			c.conn.Write(Frame(AppendControl(nil, TypeBye)))
		}
		c.dropConn()
	}
	return nil
}
