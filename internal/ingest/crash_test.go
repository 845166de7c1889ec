package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// perEpochEngine notes how many reports each epoch emitted.
type perEpochEngine struct {
	engine.Engine
	mu      sync.Mutex
	emitted []int
}

func (e *perEpochEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	n := 0
	res := e.Engine.Step(func(r vote.Report) {
		n++
		emit(r)
	})
	e.mu.Lock()
	e.emitted = append(e.emitted, n)
	e.mu.Unlock()
	return res
}

// wireTap is a collector's listener whose connections watch the frames the
// server writes (the transport writes one frame per Write): the durable
// mark the first handshake answer carries — what this incarnation loaded
// from the checkpoint — and the highest mark any ack carried. When dropAcks
// is set, acks vanish before the wire, as in a crash between a commit and
// its ack.
type wireTap struct {
	net.Listener
	mu       sync.Mutex
	loaded   int64 // -1 until a handshake is answered
	acked    uint64
	dropAcks atomic.Bool
}

func (w *wireTap) Accept() (net.Conn, error) {
	conn, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tappedConn{conn, w}, nil
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c tappedConn) Write(p []byte) (int, error) {
	if len(p) >= 5 && int(binary.LittleEndian.Uint32(p)) == len(p)-4 {
		switch typ, payload := p[4], p[5:]; typ {
		case transport.TypeHelloAck:
			if ack, err := transport.DecodeHelloAck(payload); err == nil {
				c.tap.mu.Lock()
				if c.tap.loaded < 0 {
					c.tap.loaded = int64(ack.Durable)
				}
				c.tap.mu.Unlock()
			}
		case transport.TypeAck:
			if c.tap.dropAcks.Load() {
				return len(p), nil
			}
			if ack, err := transport.DecodeAck(payload); err == nil {
				c.tap.mu.Lock()
				c.tap.acked = max(c.tap.acked, ack.Durable)
				c.tap.mu.Unlock()
			}
		}
	}
	return c.Conn.Write(p)
}

// The crash-point sweep at the collector: over a short seeded run with drops,
// duplicates, reorders and cuts on the wire, the collector is killed and
// restarted from its checkpoint at EVERY cycle, in each of the four gaps
// between a cycle-end's effects — before the sink, between sink and
// cycle-end, between cycle-end and commit, between commit and ack (the acks
// of a crashing cycle are dropped before the wire, so that gap is exact).
// Across all incarnations: each one resumes at the epoch after the one its
// checkpoint holds and settles in order; de-duplicated by epoch (the sink
// is at-least-once) every epoch settles exactly once and accepted + lost
// is what the agent emitted; every injected cut is one resume; and no ack
// ever carried a mark beyond what the next incarnation loaded.
func TestCollectorCrashPointSweep(t *testing.T) {
	for _, w := range crashWindows {
		t.Run(w.name, func(t *testing.T) { sweepCrashWindow(t, w.stage) })
	}
}

// crashWindows names the gaps a collector is killed in.
var crashWindows = []struct {
	name  string
	stage cycleStage
}{
	{"before sink", beforeSink},
	{"sink to cycle-end", beforeCycleEnd},
	{"cycle-end to commit", beforeCommit},
	{"commit to ack", afterCommit},
}

// cutLog records every cut the proxy injects, with where the collector
// stood: its incarnation, and the cycle and gap its last probe reported.
type cutLog struct {
	mu          sync.Mutex
	incarnation int
	cycle       int32
	stage       cycleStage
	killing     bool // a kill is partitioning the proxy
	cuts        []injectedCut
}

type injectedCut struct {
	conn, resumes int64 // the proxied connection; the agent's resumes before the cut
	incarnation   int
	cycle         int32
	stage         cycleStage
	kill          bool
}

func (l *cutLog) at(incarnation int, cycle int32, stage cycleStage) {
	l.mu.Lock()
	l.incarnation, l.cycle, l.stage = incarnation, cycle, stage
	l.mu.Unlock()
}

func (l *cutLog) add(conn uint64, resumes int64) {
	l.mu.Lock()
	l.cuts = append(l.cuts, injectedCut{int64(conn), resumes, l.incarnation, l.cycle, l.stage, l.killing})
	l.mu.Unlock()
}

// unresumed names each cut the agent did not resume from before the next
// cut came — or, for the last, by the end of the run, when it had resumed
// final times.
func (l *cutLog) unresumed(final int64) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for i, c := range l.cuts {
		next := final
		if i+1 < len(l.cuts) {
			next = l.cuts[i+1].resumes
		}
		if next > c.resumes {
			continue
		}
		by := "a cut fate"
		if c.kill {
			by = "the kill"
		}
		window := "?"
		for _, w := range crashWindows {
			if w.stage == c.stage {
				window = w.name
			}
		}
		out = append(out, fmt.Sprintf("connection %d of incarnation %d, cut by %s in cycle %d after its %q probe", c.conn, c.incarnation, by, c.cycle, window))
	}
	return out
}

func sweepCrashWindow(t *testing.T, window cycleStage) {
	const epochs = 6
	eng := &perEpochEngine{Engine: newTestEngine(t, engine.Config{Seed: 23}, soakTopo, 0.05)}
	path := filepath.Join(t.TempDir(), "checkpoint")
	tctr := &metrics.TransportCounters{}

	type delivery struct{ incarnation, epoch, accepted, lost int }
	var deliveries []delivery // appended on the settling readers, one incarnation alive at a time
	crashed := make(map[int32]bool)
	var proxy *transport.Proxy
	cuts := &cutLog{}

	// serve starts incarnation n. died is closed when it has been killed.
	serve := func(n int) (col *NetCollector, tap *wireTap, died chan struct{}) {
		tap = &wireTap{Listener: listen(t), loaded: -1}
		died = make(chan struct{})
		ictr := &metrics.IngestCounters{}
		var lost int64
		col, err := ServeCollector(CollectorConfig{
			Listener: tap, CheckpointPath: path, MaxRetries: 2, Counters: ictr,
			Sink: func(res *engine.EpochResult) {
				now := ictr.Lost.Load() // the core counted this epoch's losses just before the sink
				deliveries = append(deliveries, delivery{n, res.Epoch, len(res.Reports), int(now - lost)})
				lost = now
			},
			probe: func(col *NetCollector, at cycleStage, cycle int32) {
				cuts.at(n, cycle, at)
				if crashed[cycle] {
					return
				}
				if window == afterCommit && at == beforeCommit {
					tap.dropAcks.Store(true)
				}
				if at != window {
					return
				}
				crashed[cycle] = true
				// A cut counts as one only against an established session: let
				// any handshake in flight finish (the server answers those on
				// its own goroutines) before severing.
				for wait := 0; tctr.Dials.Load() != tctr.DialFailures.Load()+tctr.Resumes.Load()+1 && wait < 5000; wait++ {
					time.Sleep(100 * time.Microsecond)
				}
				cuts.mu.Lock()
				cuts.killing = true
				cuts.mu.Unlock()
				proxy.Partition()
				cuts.mu.Lock()
				cuts.killing = false
				cuts.mu.Unlock()
				col.stop(nil) // nothing else this incarnation holds runs on
				close(died)
				runtime.Goexit() // the settling reader dies here, mid-cycle
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return col, tap, died
	}

	col, tap, died := serve(0)
	proxy, err := transport.NewProxy("127.0.0.1:0", transport.ProxyConfig{
		Target: col.Addr(), Seed: 77, Drop: 0.04, Dup: 0.04, Reorder: 0.04, Cut: 0.01,
		OnCut: func(conn uint64) { cuts.add(conn, tctr.Resumes.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tc := fastTransport()
	tc.TokenResendEvery = 3
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(context.Background(), AgentConfig{
			Engine: eng, Addr: proxy.Addr(), Epochs: epochs, Seed: 23, Counters: tctr, Transport: tc,
		})
	}()

	restored := []int{-1} // the epoch each incarnation's checkpoint held
	var acked uint64      // the highest mark any incarnation so far put on the wire
	stops := 0            // incarnations that stopped themselves over a token lost in a replay
	for finished := false; !finished; {
		own := false // the collector ended by itself: killed, stopped, or every session said goodbye
		select {
		case <-col.quit:
			own = true
		case err := <-agentErr:
			// The agent can be through while a restarted collector still waits
			// for it: the last cycle-end went out before the kill.
			if err != nil {
				t.Fatalf("the agent failed across %d restarts: %v", len(restored)-1, err)
			}
			finished = true
		case <-time.After(60 * time.Second):
			t.Fatalf("stuck after %d restarts", len(restored)-1)
		}
		col.Close()
		killed := false
		select {
		case <-died:
			killed = true
		default:
		}
		if own && !killed && col.err != nil {
			if !strings.Contains(col.err.Error(), "token") {
				t.Fatalf("incarnation %d stopped: %v", len(restored)-1, col.err)
			}
			stops++
		}
		// Whatever was acked before this incarnation, its checkpoint covered.
		tap.mu.Lock()
		if tap.loaded >= 0 && tap.loaded < int64(acked) {
			t.Fatalf("incarnation %d loaded durable mark %d, but %d had been acked", len(restored)-1, tap.loaded, acked)
		}
		acked = max(acked, tap.acked)
		tap.mu.Unlock()
		if own && !killed && col.err == nil && !finished {
			finished = true
			if err := <-agentErr; err != nil {
				t.Fatalf("the agent failed across %d restarts: %v", len(restored)-1, err)
			}
		}
		if !finished {
			col, tap, died = serve(len(restored))
			restored = append(restored, int(col.srv.AppState()))
			proxy.Retarget(col.Addr())
			proxy.Heal()
		}
	}

	if len(crashed) != epochs+3 {
		t.Fatalf("crashed at cycles %v, want each of the %d once", crashed, epochs+3)
	}
	final := make(map[int]delivery)
	for i, d := range deliveries {
		first := i == 0 || deliveries[i-1].incarnation != d.incarnation
		if first && d.epoch != restored[d.incarnation]+1 {
			t.Fatalf("incarnation %d restored epoch %d and settled %d first: %v", d.incarnation, restored[d.incarnation], d.epoch, deliveries)
		}
		if !first && d.epoch != deliveries[i-1].epoch+1 {
			t.Fatalf("settle order within an incarnation: %v", deliveries)
		}
		final[d.epoch] = d // the last delivery is the one whose commit held
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(final) != epochs {
		t.Fatalf("%d distinct epochs settled, want %d: %v", len(final), epochs, deliveries)
	}
	for e := 0; e < epochs; e++ {
		if d := final[e]; d.accepted+d.lost != eng.emitted[e] {
			t.Fatalf("epoch %d: accepted %d + lost %d, emitted %d", e, d.accepted, d.lost, eng.emitted[e])
		}
	}
	// Every injected cut (a kill severs through the proxy, so it counts) is one
	// resume. Two exceptions, both bounded: a collector that stopped itself
	// closed its connections unseen by the proxy, at most one more resume
	// each; and the last cycle's kill, in the gaps after its cycle-end, may
	// sever an agent that is already through — a cut with nothing to resume.
	spare := int64(0)
	if window >= beforeCommit {
		spare = 1
	}
	if got, injected := tctr.Resumes.Load(), proxy.InjCuts.Load(); got < injected-spare || got > injected+int64(stops) {
		t.Fatalf("Resumes = %d, InjCuts = %d, self-stops = %d; the cuts no resume followed: %s",
			got, injected, stops, strings.Join(cuts.unresumed(got), "; "))
	}
	t.Logf("%d kills and %d self-stops, %d deliveries of %d epochs, %d cuts, %d drops, highest mark acked %d",
		len(crashed), stops, len(deliveries), epochs, proxy.InjCuts.Load(), proxy.InjDrops.Load(), acked)
}
