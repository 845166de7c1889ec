package transport

import (
	"bufio"
	"context"
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
	// ThresholdFrac and MaxLinks ride the Hello frame so the collector
	// can validate engine-configuration agreement.
	ThresholdFrac float64
	MaxLinks      int32
	// DialTimeout bounds each TCP dial. 0 means 5s.
	DialTimeout time.Duration
	// IOTimeout bounds each frame write, the handshake read, and how long
	// a frame may stay partially read before the connection is presumed
	// dead. 0 means 10s.
	IOTimeout time.Duration
	// WaitPoll is the read-poll granularity while waiting for a
	// cycle-end: each expiry sends a heartbeat and every few expiries
	// re-sends the cycle token (recovering a lost cycle-end). 0 means
	// 250ms.
	WaitPoll time.Duration
	// TokenResendEvery is the number of WaitPoll expiries between token
	// re-sends. 0 means 4.
	TokenResendEvery int
	// DeadPolls is the number of consecutive silent polls after which the
	// connection is presumed dead and rebuilt. 0 means 40.
	DeadPolls int
	// BackoffBase/BackoffMax shape the reconnect backoff (exponential,
	// seeded jitter). 0 means 20ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed derives the jitter substream (stats.DeriveRNG), keeping chaos
	// runs reproducible.
	Seed uint64
	// Window bounds the unacknowledged-frame buffer: the client refuses
	// to race further ahead of the collector's durable watermark. 0 means
	// 1<<16 frames.
	Window int
	// MaxFrame bounds inbound frame payloads; 0 means DefaultMaxFrame.
	MaxFrame int
	// Dial overrides the dialer (tests route through in-process proxies).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Counters receives the transport's observable state; one is
	// allocated when nil.
	Counters *metrics.TransportCounters
}

type bufFrame struct {
	seq    uint64
	framed []byte
}

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

	nextSeq     uint64     // last assigned sequence number
	buf         []bufFrame // sequenced frames not yet durably acked
	durable     uint64     // collector's durable watermark
	established bool       // a handshake has completed at least once

	lastToken      []byte // framed copy of the newest token, for re-sends
	lastTokenCycle int32

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
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 10 * time.Second
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

// Counters returns the live transport counters.
func (c *Client) Counters() *metrics.TransportCounters { return c.ctr }

// Durable returns the collector's durable watermark as last acknowledged.
func (c *Client) Durable() uint64 { return c.durable }

// Buffered returns the number of frames held for potential replay.
func (c *Client) Buffered() int { return len(c.buf) }

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
	if durable <= c.durable {
		return
	}
	c.durable = durable
	i := 0
	for i < len(c.buf) && c.buf[i].seq <= durable {
		i++
	}
	if i > 0 {
		c.buf = c.buf[:copy(c.buf, c.buf[i:])]
	}
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
		conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
		hello := Hello{Version: Version, Session: c.cfg.Session,
			ThresholdFrac: c.cfg.ThresholdFrac, MaxLinks: c.cfg.MaxLinks}
		if _, err := conn.Write(Frame(AppendHello(nil, hello))); err != nil {
			conn.Close()
			c.ctr.DialFailures.Add(1)
			continue
		}
		br := bufio.NewReader(conn)
		conn.SetReadDeadline(time.Now().Add(c.cfg.IOTimeout))
		typ, payload, err := ReadFrame(br, c.cfg.MaxFrame)
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
		// Replay every buffered frame the collector has not processed.
		for _, f := range c.buf {
			if f.seq <= ack.Resume {
				continue
			}
			conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
			if _, err := conn.Write(f.framed); err != nil {
				conn.Close()
				continue dialing
			}
			if c.established {
				// The first connection sends its first frame through this
				// loop too; that is not a replay.
				c.ctr.FramesResent.Add(1)
			}
		}
		c.conn = conn
		c.br = br
		c.established = true
		c.onAck(ack.Durable)
		return nil
	}
}

// send buffers a sequenced frame and puts it on the wire, reconnecting
// (which replays it) on any write failure.
func (c *Client) send(ctx context.Context, framed []byte, seq uint64) error {
	if len(c.buf) >= c.cfg.Window {
		return fmt.Errorf("transport: session %d send window full (%d unacked frames)",
			c.cfg.Session, len(c.buf))
	}
	c.buf = append(c.buf, bufFrame{seq: seq, framed: framed})
	c.ctr.FramesSent.Add(1)
	if c.conn == nil {
		return c.Connect(ctx)
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
	if _, err := c.conn.Write(framed); err != nil {
		c.dropConn()
		return c.Connect(ctx)
	}
	return nil
}

// SendReport ships one vote report on the session's FIFO lane.
func (c *Client) SendReport(ctx context.Context, r vote.Report, attempt uint8) error {
	c.nextSeq++
	framed := Frame(AppendReport(nil, Report{Seq: c.nextSeq, Attempt: attempt, R: r}))
	return c.send(ctx, framed, c.nextSeq)
}

// SendToken ships the cycle token that closes this agent's lane for the
// cycle; a framed copy is kept so WaitCycleEnd can re-send it (same
// sequence number — the collector treats the re-send as a stale frame and
// answers with the newest cycle-end).
func (c *Client) SendToken(ctx context.Context, t Token) error {
	c.nextSeq++
	t.Seq = c.nextSeq
	framed := Frame(AppendToken(nil, t))
	c.lastToken = framed
	c.lastTokenCycle = t.Cycle
	return c.send(ctx, framed, c.nextSeq)
}

// WaitCycleEnd blocks until the collector ends cycle (processing acks and
// heartbeats along the way). Lost cycle-ends are recovered by periodically
// re-sending the cycle token; a silent connection is eventually presumed
// dead and rebuilt.
func (c *Client) WaitCycleEnd(ctx context.Context, cycle int32) (CycleEnd, error) {
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
					c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
					if _, werr := c.conn.Write(c.lastToken); werr != nil {
						c.dropConn()
						continue
					}
					c.ctr.TokenResends.Add(1)
				} else {
					c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
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
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.IOTimeout))
		typ, payload, err := ReadFrame(c.br, c.cfg.MaxFrame)
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

// Close says goodbye (best effort) and drops the connection. The replay
// buffer is discarded: Close is for a session whose every frame has been
// durably acknowledged (or abandoned on purpose).
func (c *Client) Close() error {
	if c.conn != nil {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
		c.conn.Write(Frame(AppendControl(nil, TypeBye)))
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
	return nil
}
