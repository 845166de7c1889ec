package ingest

import (
	"bufio"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// checkConservation asserts that every report that reached the core was
// accounted for exactly once.
func checkConservation(t testing.TB, ctr *metrics.IngestCounters) {
	t.Helper()
	got := ctr.Accepted.Load() + ctr.Duplicates.Load() + ctr.LateDropped.Load() + ctr.Rejected.Load() + ctr.Excess.Load()
	if r := ctr.Received.Load(); r != got {
		t.Fatalf("Received = %d, Accepted + Duplicates + LateDropped + Rejected + Excess = %d", r, got)
	}
}

// Four well-framed streams that used to stop the settle core at its
// conservation panic. Each now settles its epoch, with the stray report
// counted Excess or the stray count counted dropped.
func TestSettleCoreHostileProbes(t *testing.T) {
	rep := func(src topology.HostID, seq int32) vote.Report {
		return vote.Report{Src: src, Epoch: 0, Seq: seq}
	}
	for _, tc := range []struct {
		name    string
		reports []vote.Report
		counts  []transport.AgentCount
		// accepted, lost, excess and dropped counts the settle must show.
		accepted, lost, excess, dropped int64
	}{
		{"seq past a later count", []vote.Report{rep(1, 5)}, []transport.AgentCount{{Agent: 1, N: 1}}, 0, 1, 1, 0},
		{"agent counted twice", []vote.Report{rep(1, 0), rep(1, 1)}, []transport.AgentCount{{Agent: 1, N: 1}, {Agent: 1, N: 2}}, 1, 0, 1, 1},
		{"negative count", []vote.Report{rep(1, 0)}, []transport.AgentCount{{Agent: 1, N: -3}}, 0, 0, 1, 1},
		{"agent no token counts", []vote.Report{rep(7, 0)}, []transport.AgentCount{{Agent: 1, N: 1}}, 0, 1, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctr := &metrics.IngestCounters{}
			c := newSettleCore(1, 0, 0, ctr, -1)
			for _, r := range tc.reports {
				c.report(r, 0, false)
			}
			c.token(0, true, tc.counts)
			done, ok := c.next()
			if !ok || !done.settled || done.epoch != 0 || int64(len(done.accepted)) != tc.accepted {
				t.Fatalf("cycle 0: settled %v epoch %d with %d reports, want epoch 0 with %d", done.settled, done.epoch, len(done.accepted), tc.accepted)
			}
			if ctr.Lost.Load() != tc.lost || ctr.Excess.Load() != tc.excess || ctr.DroppedCounts.Load() != tc.dropped {
				t.Fatalf("lost %d, excess %d, dropped counts %d; want %d, %d, %d",
					ctr.Lost.Load(), ctr.Excess.Load(), ctr.DroppedCounts.Load(), tc.lost, tc.excess, tc.dropped)
			}
			checkConservation(t, ctr)
		})
	}
	t.Run("report after its cycle completed", func(t *testing.T) {
		// Cycle 0 completes with no state for epoch 0; the report that then
		// opens one has no count coming, so the settle finds it excess.
		ctr := &metrics.IngestCounters{}
		c := newSettleCore(1, 1, 0, ctr, -1)
		c.token(0, true, nil)
		c.next()
		c.report(rep(1, 0), 0, false)
		c.token(1, true, nil)
		if done, _ := c.next(); !done.settled || done.epoch != 0 || len(done.accepted) != 0 || ctr.Excess.Load() != 1 {
			t.Fatalf("settled %v epoch %d with %d reports, excess %d", done.settled, done.epoch, len(done.accepted), ctr.Excess.Load())
		}
		checkConservation(t, ctr)
	})
	t.Run("new agent after the seal", func(t *testing.T) {
		// Epoch 0 is sealed and final; an agent it never heard of has no
		// count coming and expects 0.
		ctr := &metrics.IngestCounters{}
		c := newSettleCore(1, 1, 0, ctr, -1)
		c.report(rep(1, 0), 0, false)
		c.token(0, true, []transport.AgentCount{{Agent: 1, N: 1}})
		if done, _ := c.next(); len(done.final) != 1 {
			t.Fatalf("epoch 0 not final: %+v", done.final)
		}
		c.report(rep(7, 0), 0, false)
		c.token(1, true, nil)
		if done, _ := c.next(); !done.settled || len(done.accepted) != 1 || ctr.Excess.Load() != 1 {
			t.Fatalf("settled %v with %d reports, excess %d", done.settled, len(done.accepted), ctr.Excess.Load())
		}
		checkConservation(t, ctr)
	})
	t.Run("count above the bound", func(t *testing.T) {
		ctr := &metrics.IngestCounters{}
		c := newSettleCore(1, 0, 0, ctr, -1)
		c.token(0, true, []transport.AgentCount{{Agent: 1, N: maxAgentSeq + 1}, {Agent: 2, N: maxAgentSeq}})
		if done, _ := c.next(); !done.settled || ctr.DroppedCounts.Load() != 1 || ctr.Lost.Load() != maxAgentSeq {
			t.Fatalf("settled %v, dropped counts %d, lost %d", done.settled, ctr.DroppedCounts.Load(), ctr.Lost.Load())
		}
	})
}

// hostileOp decodes one byte into a value from a small space with the
// edges mixed in: most bytes give v % mod, the top few the specials.
func hostileOp(b byte, mod int32, specials ...int32) int32 {
	if i := int(b) - (256 - len(specials)); i >= 0 {
		return specials[i]
	}
	return int32(b) % mod
}

// FuzzSettleCoreHostile drives the settle core with any stream of reports,
// tokens and cycle completions over four agents and six epochs, so
// identities collide all the time, with sequences and counts at and past
// every bound. Nothing may panic, every report must be accounted for once,
// epochs must settle in ascending order, epochs must be reported final once
// each, in order, and never more than the analyst's queue holds ahead of
// their settle, and the stream may allocate no more than a fixed budget.
func FuzzSettleCoreHostile(f *testing.F) {
	// The first byte is the core's shape; then each op is a kind byte and
	// its operands: report (agent, epoch, seq), token (cycle, count pairs),
	// next. testdata/fuzz/FuzzSettleCoreHostile holds the four probes of
	// TestSettleCoreHostileProbes in this encoding.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		ctr := &metrics.IngestCounters{}
		h := data[0]
		c := newSettleCore(1+int(h&1), int(h>>1)%3, int(h>>3)%2, ctr, -1)
		in := data[1:]
		take := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		settled, posted := int32(-1), int32(-1)
		drain := func() {
			for done, ok := c.next(); ok; done, ok = c.next() {
				for _, f := range done.final {
					if f.epoch <= posted {
						t.Fatalf("epoch %d reported final after epoch %d", f.epoch, posted)
					}
					posted = f.epoch
				}
				// The analyst's queue holds grace+2 epochs: a core that posts
				// more ahead of their settle would fill it.
				if posted-settled > c.grace+2 {
					t.Fatalf("epochs up to %d posted for analysis, %d settled, grace %d", posted, settled, c.grace)
				}
				if done.settled {
					if done.epoch <= settled {
						t.Fatalf("epoch %d settled after epoch %d", done.epoch, settled)
					}
					settled = done.epoch
				}
			}
		}
		for len(in) > 0 {
			switch op := take(); op % 3 {
			case 0:
				r := vote.Report{
					Src:   topology.HostID(take() % 4),
					Epoch: hostileOp(take(), 6, -1, math.MinInt32, math.MaxInt32),
					Seq:   hostileOp(take(), 70, -1, maxAgentSeq-1, maxAgentSeq, math.MaxInt32),
				}
				c.report(r, op>>2&1, op>>3&1 == 1)
			case 1:
				cycle := int32(take() % 6)
				counts := make([]transport.AgentCount, take()%4)
				for i := range counts {
					counts[i] = transport.AgentCount{
						Agent: topology.HostID(take() % 4),
						N:     hostileOp(take(), 8, -3, maxAgentSeq+1, math.MinInt32, 1000, 4096, math.MaxInt32),
					}
				}
				c.token(cycle, op>>2&1 == 0, counts)
			case 2:
				drain()
			}
			checkConservation(t, ctr)
		}
		drain()
		runtime.ReadMemStats(&after)
		// Six epochs of four agents' bitsets at the sequence bound come to
		// a few MiB, re-requests for counts of 4,096 to less.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 64<<20 {
			t.Fatalf("the stream allocated %d MiB", spent>>20)
		}
	})
}

// Probe (a) sent over a raw TCP session: the collector counts the report
// Excess, settles its epoch without it, and keeps settling the next. A
// token that claims a live epoch without the summary to settle it on
// counts as a drain token.
func TestNetCollectorExcessReport(t *testing.T) {
	var mu sync.Mutex
	var got []*engine.EpochResult
	col, err := ServeCollector(CollectorConfig{
		Listener: listen(t), Grace: 1, MaxRetries: 1,
		Sink: func(res *engine.EpochResult) {
			mu.Lock()
			got = append(got, res)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(body []byte) {
		if _, err := conn.Write(transport.Frame(body)); err != nil {
			t.Fatal(err)
		}
	}
	send(transport.AppendHello(nil, transport.Hello{Version: transport.Version, Session: 1, ThresholdFrac: 0.01}))
	if typ, _, err := transport.ReadFrame(bufio.NewReader(conn), 0); err != nil || typ != transport.TypeHelloAck {
		t.Fatalf("hello answered with frame type %d: %v", typ, err)
	}
	var seq uint64
	report := func(epoch, s int32) {
		seq++
		send(transport.AppendReport(nil, transport.Report{Seq: seq, R: vote.Report{
			FlowID: int64(epoch), Src: 1, Epoch: epoch, Seq: s, Path: []topology.LinkID{0},
		}}))
	}
	token := func(cycle int32, live bool, counts ...transport.AgentCount) {
		seq++
		tok := transport.Token{Seq: seq, Cycle: cycle, Live: live, Counts: counts}
		if live {
			tok.Summary = &transport.EpochSummary{Epoch: cycle}
		}
		send(transport.AppendToken(nil, tok))
	}
	report(0, 5)
	token(0, true, transport.AgentCount{Agent: 1, N: 1})
	report(1, 0)
	token(1, true, transport.AgentCount{Agent: 1, N: 1})
	// A live token with no summary, then the drain cycle that settles it.
	seq++
	send(transport.AppendToken(nil, transport.Token{Seq: seq, Cycle: 2, Live: true}))
	token(3, false)
	send(transport.AppendControl(nil, transport.TypeBye))
	waitCollector(t, col)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Epoch != 0 || len(got[0].Reports) != 0 || got[1].Epoch != 1 || len(got[1].Reports) != 1 {
		t.Fatalf("settled %d epochs, want epoch 0 with no report and epoch 1 with one", len(got))
	}
	ctr := col.Counters()
	if ctr.Excess.Load() != 1 || ctr.Lost.Load() != 1 || ctr.Accepted.Load() != 1 {
		t.Fatalf("excess %d, lost %d, accepted %d; want 1, 1, 1", ctr.Excess.Load(), ctr.Lost.Load(), ctr.Accepted.Load())
	}
	checkConservation(t, ctr)
}
