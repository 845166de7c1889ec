package transport

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vigil/internal/stats"
)

// ProxyConfig parametrizes a deterministic wire-level fault injector. The
// proxy sits between agents and collector, parses the agent-to-collector
// frame stream, and assigns each frame a fate drawn from a counter-based
// substream — stats.DeriveRNG(Seed, conn<<20|frame) — so a given seed
// yields the same partitions, cuts, drops, duplicates and reorders on
// every run, independent of scheduling. The proxy is test support: only
// the transport and ingest tests run one.
type ProxyConfig struct {
	// Test hook: Target is the real collector address the tests put the
	// proxy in front of; Retarget moves it at runtime for crash/restart
	// tests.
	Target string
	// Test hook: Seed derives every fate, so a chaos test replays.
	Seed uint64
	// Test hook: Drop, Dup, Reorder and Cut are per-frame fate
	// probabilities the chaos tests set. They apply in the precedence Cut,
	// Drop, Reorder, Dup: Cut kills both directions mid-frame (half the
	// frame is forwarded first); Drop swallows a sequenced frame whole;
	// Reorder holds a sequenced frame back one slot (the following frame
	// overtakes it); Dup forwards a sequenced frame twice. Drop, Reorder
	// and Dup apply only to sequenced frames, so handshakes and heartbeats
	// always flow. Cuts are never applied to a connection's first frames
	// (so a cut always lands on an established session) nor to a Bye
	// (nothing remains to resume after a goodbye), keeping the Resumes ==
	// InjCuts invariant exact.
	Drop, Dup, Reorder, Cut float64
	// Test hook: OnCut, when set, is told of each injected cut, with the
	// index of the connection (counted from 1 in accept order) it severs: a
	// Cut fate's before the connection dies, so a test can snapshot what
	// the cut found; a CutAll's after it, when only a partition can be
	// keeping the agent from resuming.
	OnCut func(conn uint64)
}

type proxyPair struct {
	client, server net.Conn
	idx            uint64 // accept order, from 1
	once           sync.Once
}

// kill severs the pair and reports whether this call was the one that did.
func (p *proxyPair) kill() (first bool) {
	p.once.Do(func() {
		first = true
		p.client.Close()
		p.server.Close()
	})
	return first
}

// Proxy is the running fault injector.
type Proxy struct {
	cfg ProxyConfig
	ln  net.Listener

	target      atomic.Value // string
	partitioned atomic.Bool

	mu     sync.Mutex
	pairs  map[*proxyPair]struct{}
	closed bool

	connIdx atomic.Uint64
	wg      sync.WaitGroup

	// Injection ledger, matched against transport counters by the chaos
	// tests.
	InjDrops    atomic.Int64
	InjDups     atomic.Int64
	InjReorders atomic.Int64
	InjCuts     atomic.Int64
	Forwarded   atomic.Int64
}

// Test hook: NewProxy starts a fault proxy listening on addr
// ("127.0.0.1:0" for an ephemeral test port), so that the chaos and crash
// tests can put seeded wire faults between an agent and its collector.
func NewProxy(addr string, cfg ProxyConfig) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, pairs: make(map[*proxyPair]struct{})}
	p.target.Store(cfg.Target)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Test hook: Addr returns the proxy's listen address, which a test's
// agents dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Test hook: Retarget points subsequent connections at a new collector
// address, so a crash-recovery test can restart its collector.
func (p *Proxy) Retarget(target string) { p.target.Store(target) }

// Test hook: Partition refuses new connections and severs live ones until
// Heal, so a test can cut agents off. It returns the number of live pairs
// cut.
func (p *Proxy) Partition() int {
	p.partitioned.Store(true)
	return p.CutAll()
}

// Test hook: Heal ends a partition.
func (p *Proxy) Heal() { p.partitioned.Store(false) }

// CutAll severs every live pair (counting each as an injected cut) and
// returns how many were cut. Call it in steady state — with sessions
// established — so each cut maps to exactly one resume.
func (p *Proxy) CutAll() int {
	p.mu.Lock()
	pairs := make([]*proxyPair, 0, len(p.pairs))
	for pr := range p.pairs {
		pairs = append(pairs, pr)
	}
	p.mu.Unlock()
	// A pair a cut fate has just killed stays registered until both of its
	// pumps have unwound; counting it again would claim a cut no session
	// will ever resume from.
	cut := 0
	for _, pr := range pairs {
		if pr.kill() {
			cut++
			if p.cfg.OnCut != nil {
				p.cfg.OnCut(pr.idx)
			}
		}
	}
	p.InjCuts.Add(int64(cut))
	return cut
}

// Test hook: Live returns the number of live proxied connections, which a
// test waits on before it cuts or partitions them.
func (p *Proxy) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pairs)
}

// Test hook: Close shuts the proxy down, severing everything (without
// counting the severs as injected cuts).
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	pairs := make([]*proxyPair, 0, len(p.pairs))
	for pr := range p.pairs {
		pairs = append(pairs, pr)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, pr := range pairs {
		pr.kill()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.partitioned.Load() {
			conn.Close()
			continue
		}
		idx := p.connIdx.Add(1)
		p.wg.Add(1)
		go p.serve(conn, idx)
	}
}

func (p *Proxy) serve(clientConn net.Conn, idx uint64) {
	defer p.wg.Done()
	serverConn, err := net.DialTimeout("tcp", p.target.Load().(string), 2*time.Second)
	if err != nil {
		clientConn.Close()
		return
	}
	pr := &proxyPair{client: clientConn, server: serverConn, idx: idx}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pr.kill()
		return
	}
	p.pairs[pr] = struct{}{}
	p.mu.Unlock()

	done := func() {
		pr.kill()
		p.mu.Lock()
		delete(p.pairs, pr)
		p.mu.Unlock()
	}
	var half sync.WaitGroup
	half.Add(2)
	// Collector-to-agent direction forwards verbatim: the interesting
	// faults (loss, duplication, reordering of sequenced state) live on
	// the agent-to-collector stream; acks and cycle-ends die with the
	// connection when a cut fate fires, which is fault enough.
	go func() {
		defer half.Done()
		io.Copy(clientConn, serverConn)
		pr.kill()
	}()
	go func() {
		defer half.Done()
		p.pump(pr, idx)
	}()
	half.Wait()
	done()
}

func sequencedType(typ byte) bool {
	return typ == TypeReport || typ == TypeToken
}

// pump relays the agent-to-collector frame stream, applying seeded fates.
func (p *Proxy) pump(pr *proxyPair, idx uint64) {
	br := bufio.NewReader(pr.client)
	var rng stats.RNG
	var held []byte // reorder slot: one frame held back until the next
	var frameIdx uint64
	flushHeld := func() bool {
		if held == nil {
			return true
		}
		_, err := pr.server.Write(held)
		held = nil
		return err == nil
	}
	for {
		typ, payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			flushHeld()
			pr.kill()
			return
		}
		frameIdx++
		body := make([]byte, 0, 1+len(payload))
		body = append(body, typ)
		body = append(body, payload...)
		framed := Frame(body)
		rng.Derive(p.cfg.Seed, idx<<20|frameIdx)

		if p.cfg.Cut > 0 && frameIdx >= 2 && typ != TypeBye && rng.Bool(p.cfg.Cut) {
			// Mid-frame cut: half the frame escapes, then the wire dies
			// in both directions. The collector's framer must discard the
			// torn prefix; the agent must resume and replay.
			pr.server.Write(framed[:len(framed)/2])
			p.InjCuts.Add(1)
			if p.cfg.OnCut != nil {
				p.cfg.OnCut(idx)
			}
			pr.kill()
			return
		}
		if sequencedType(typ) {
			if p.cfg.Drop > 0 && rng.Bool(p.cfg.Drop) {
				p.InjDrops.Add(1)
				continue
			}
			if p.cfg.Reorder > 0 && held == nil && rng.Bool(p.cfg.Reorder) {
				p.InjReorders.Add(1)
				held = framed
				continue
			}
		}
		if _, err := pr.server.Write(framed); err != nil {
			pr.kill()
			return
		}
		p.Forwarded.Add(1)
		if !flushHeld() {
			pr.kill()
			return
		}
		if sequencedType(typ) && p.cfg.Dup > 0 && rng.Bool(p.cfg.Dup) {
			p.InjDups.Add(1)
			if _, err := pr.server.Write(framed); err != nil {
				pr.kill()
				return
			}
		}
	}
}
