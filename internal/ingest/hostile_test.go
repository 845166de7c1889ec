package ingest

import (
	"bufio"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vigil/internal/ecmp"
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
	got := ctr.Accepted.Load() + ctr.Duplicates.Load() + discarded(ctr, "report")
	if r := ctr.Received.Load(); r != got {
		t.Fatalf("Received = %d, Accepted + Duplicates + report discards = %d", r, got)
	}
}

// discarded sums ctr's discards of one kind: report, count or token.
func discarded(ctr *metrics.IngestCounters, kind string) int64 {
	var n int64
	for r := range ctr.Discards {
		if k, _ := metrics.Discard(r).Labels(); k == kind {
			n += ctr.Discards[r].Load()
		}
	}
	return n
}

// rejected sums the two reasons vigil_ingest_rejected_total renders:
// report malformed and far_epoch.
func rejected(ctr *metrics.IngestCounters) int64 {
	return ctr.Discards[metrics.ReportMalformed].Load() + ctr.Discards[metrics.ReportFarEpoch].Load()
}

// Four well-framed streams that used to stop the settle core at its
// conservation panic. Each now settles its epoch, with the stray report
// discarded as excess or the stray count discarded.
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
			if ctr.Lost.Load() != tc.lost || ctr.Discards[metrics.ReportExcess].Load() != tc.excess || discarded(ctr, "count") != tc.dropped {
				t.Fatalf("lost %d, excess %d, dropped counts %d; want %d, %d, %d",
					ctr.Lost.Load(), ctr.Discards[metrics.ReportExcess].Load(), discarded(ctr, "count"), tc.lost, tc.excess, tc.dropped)
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
		if done, _ := c.next(); !done.settled || done.epoch != 0 || len(done.accepted) != 0 || ctr.Discards[metrics.ReportExcess].Load() != 1 {
			t.Fatalf("settled %v epoch %d with %d reports, excess %d", done.settled, done.epoch, len(done.accepted), ctr.Discards[metrics.ReportExcess].Load())
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
		if done, _ := c.next(); !done.settled || len(done.accepted) != 1 || ctr.Discards[metrics.ReportExcess].Load() != 1 {
			t.Fatalf("settled %v with %d reports, excess %d", done.settled, len(done.accepted), ctr.Discards[metrics.ReportExcess].Load())
		}
		checkConservation(t, ctr)
	})
	t.Run("count above the bound", func(t *testing.T) {
		ctr := &metrics.IngestCounters{}
		c := newSettleCore(1, 0, 0, ctr, -1)
		c.token(0, true, []transport.AgentCount{{Agent: 1, N: maxAgentSeq + 1}, {Agent: 2, N: maxAgentSeq}})
		if done, _ := c.next(); !done.settled || ctr.Discards[metrics.CountOutOfRange].Load() != 1 || ctr.Lost.Load() != maxAgentSeq {
			t.Fatalf("settled %v, out-of-range counts %d, lost %d", done.settled, ctr.Discards[metrics.CountOutOfRange].Load(), ctr.Lost.Load())
		}
	})
}

// A report with a path longer than any ECMP path, which no agent can
// produce and a wire peer can send, is malformed at the door: counted,
// never admitted, and its sequence a hole its epoch settles as lost. A path
// of ecmp.MaxPathLinks links is admitted.
func TestSettleCoreRejectsOverlongPath(t *testing.T) {
	ctr := &metrics.IngestCounters{}
	c := newSettleCore(1, 0, 0, ctr, -1)
	c.report(vote.Report{Src: 1, Seq: 0, Path: make([]topology.LinkID, ecmp.MaxPathLinks)}, 0, false)
	c.report(vote.Report{Src: 1, Seq: 1, Path: make([]topology.LinkID, ecmp.MaxPathLinks+1)}, 0, false)
	c.token(0, true, []transport.AgentCount{{Agent: 1, N: 2}})
	done, ok := c.next()
	if !ok || !done.settled || len(done.accepted) != 1 || done.accepted[0].Seq != 0 {
		t.Fatalf("settled %v with %d reports, want the 6-link one", done.settled, len(done.accepted))
	}
	if m, lost := ctr.Discards[metrics.ReportMalformed].Load(), ctr.Lost.Load(); m != 1 || lost != 1 {
		t.Fatalf("malformed %d, lost %d; want 1 and 1", m, lost)
	}
	checkConservation(t, ctr)
}

// Well-framed reports that each name a distinct far-future epoch used to
// open an epoch state apiece, each with an arrivals buffer presized to the
// last settled epoch: 20,000 reports of about 40 wire bytes held 1.7 GiB,
// all counted Accepted, and every cycle sorted every open epoch. A report
// for an epoch past lastSettled+grace+2 is now discarded before it reaches
// any state, and a token for such a cycle is dropped.
func TestSettleCoreFarEpochsStaySmall(t *testing.T) {
	const grace, agents, perAgent = 2, 14, 100 // 1,400 reports an epoch
	ctr := &metrics.IngestCounters{}
	c := newSettleCore(1, grace, 1, ctr, -1)
	counts := make([]transport.AgentCount, agents)
	for e := int32(0); e < 4; e++ {
		for a := range agents {
			for s := range int32(perAgent) {
				c.report(vote.Report{Src: topology.HostID(a), Epoch: e, Seq: s}, 0, false)
			}
			counts[a] = transport.AgentCount{Agent: topology.HostID(a), N: perAgent}
		}
		c.token(e, true, counts)
		for _, ok := c.next(); ok; _, ok = c.next() {
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const far = 20_000
	for i := range int32(far) {
		c.report(vote.Report{Src: topology.HostID(i % agents), Epoch: 1000 + i, Seq: 0}, 0, false)
		if len(c.open) > grace+2 {
			t.Fatalf("report %d for epoch %d left %d epochs open, want at most %d", i, 1000+i, len(c.open), grace+2)
		}
	}
	// A token for a far cycle opens nothing either.
	c.token(1_000_000, true, counts)
	if len(c.open) > grace+2 || c.tokens[1_000_000] != 0 {
		t.Fatalf("a far token left %d epochs open and %d tokens", len(c.open), c.tokens[1_000_000])
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Fatalf("%d far-epoch reports allocated %d KiB", far, spent>>10)
	}
	if got := ctr.Discards[metrics.ReportFarEpoch].Load(); got != far || rejected(ctr) != far {
		t.Fatalf("far-epoch report discards = %d, with malformed %d; want %d, with malformed %d", got, rejected(ctr), far, far)
	}
	// Two drain cycles settle the last honest epochs, whole.
	for e := int32(4); e < 4+grace; e++ {
		c.token(e, false, nil)
		for _, ok := c.next(); ok; _, ok = c.next() {
		}
	}
	if c.lastSettled != 3 || ctr.Accepted.Load() != 4*agents*perAgent || ctr.Lost.Load() != 0 {
		t.Fatalf("settled through %d, accepted %d, lost %d; want 3, %d, 0", c.lastSettled, ctr.Accepted.Load(), ctr.Lost.Load(), 4*agents*perAgent)
	}
	checkConservation(t, ctr)
}

// A restarted core's window is one cycle past nextEnd: with two sources,
// session A's replay can deliver its reports for cycle K+1 before session
// B's replayed token completes cycle K, and they must still settle.
func TestSettleCoreRestoredAdmitsNextCycle(t *testing.T) {
	const restored = 3 // epochs through 3 settled; cycles through 4 completed
	ctr := &metrics.IngestCounters{}
	c := newSettleCore(2, 1, 0, ctr, restored)
	k := c.nextEnd
	rep := func(agent topology.HostID, e int32) { c.report(vote.Report{Src: agent, Epoch: e, Seq: 0}, 0, false) }
	tok := func(agent topology.HostID, cycle int32) {
		c.token(cycle, true, []transport.AgentCount{{Agent: agent, N: 1}})
	}
	var settled []cycleDone
	drain := func() {
		for done, ok := c.next(); ok; done, ok = c.next() {
			if done.settled {
				done.accepted = slices.Clone(done.accepted)
				settled = append(settled, done)
			}
		}
	}
	// The replay: epoch K-1 is open, cycle K-1 completed before the crash.
	rep(1, k-1)
	tok(1, k-1)
	rep(2, k-1)
	tok(2, k-1)
	drain()
	// Session A's replay runs a cycle ahead of session B's.
	rep(1, k)
	tok(1, k)
	rep(1, k+1)
	rep(2, k)
	tok(2, k)
	drain()
	tok(1, k+1)
	rep(2, k+1)
	tok(2, k+1)
	drain()
	c.token(k+2, false, nil)
	c.token(k+2, false, nil)
	drain()
	if len(settled) != 3 {
		t.Fatalf("settled %d epochs, want %d through %d", len(settled), k-1, k+1)
	}
	for i, done := range settled {
		if done.epoch != k-1+int32(i) || len(done.accepted) != 2 || done.lost != 0 {
			t.Fatalf("epoch %d settled with %d reports, %d lost; want epoch %d with 2, none lost",
				done.epoch, len(done.accepted), done.lost, k-1+int32(i))
		}
	}
	if got := rejected(ctr); got != 0 {
		t.Fatalf("malformed + far-epoch report discards = %d, want 0", got)
	}
	checkConservation(t, ctr)
}

// A token for a cycle whose epoch has settled, and one for a cycle no
// source can have reached, is dropped whole: each counts one discard of its
// own reason, and none of its counts.
func TestSettleCoreTokenDiscards(t *testing.T) {
	ctr := &metrics.IngestCounters{}
	c := newSettleCore(1, 0, 0, ctr, -1)
	c.token(0, true, nil)
	if done, _ := c.next(); !done.settled || done.epoch != 0 {
		t.Fatalf("cycle 0 did not settle epoch 0: %+v", done)
	}
	counts := []transport.AgentCount{{Agent: 1, N: 1}}
	c.token(0, true, counts)
	c.token(3, true, counts) // past lastSettled+grace+2 = 2
	if got := ctr.Discards[metrics.TokenSettled].Load(); got != 1 {
		t.Fatalf("settled-cycle token discards = %d, want 1", got)
	}
	if got := ctr.Discards[metrics.TokenFarEpoch].Load(); got != 1 {
		t.Fatalf("far-cycle token discards = %d, want 1", got)
	}
	if n := discarded(ctr, "count"); n != 0 || len(c.open) != 0 || len(c.tokens) != 0 {
		t.Fatalf("the dropped tokens left %d count discards, %d open epochs, %d tokens", n, len(c.open), len(c.tokens))
	}
}

// A core restarted with no checkpoint has settled nothing, yet its agents
// may be at epoch grace+1: the crash came between cycle grace's end and the
// commit of epoch 0. Session A's replay of epochs 0 to grace+1 can then
// arrive before session B's replayed token 0, and all of it must settle.
func TestSettleCoreUnrestoredAdmitsGraceWindow(t *testing.T) {
	const grace = 2
	ctr := &metrics.IngestCounters{}
	c := newSettleCore(2, grace, 0, ctr, -1)
	rep := func(agent topology.HostID, e int32) { c.report(vote.Report{Src: agent, Epoch: e, Seq: 0}, 0, false) }
	tok := func(agent topology.HostID, cycle int32) {
		c.token(cycle, true, []transport.AgentCount{{Agent: agent, N: 1}})
	}
	var settled []cycleDone
	drain := func() {
		for done, ok := c.next(); ok; done, ok = c.next() {
			if done.settled {
				done.accepted = slices.Clone(done.accepted)
				settled = append(settled, done)
			}
		}
	}
	// Session A's whole replay lands first.
	for e := int32(0); e <= grace; e++ {
		rep(1, e)
		tok(1, e)
	}
	rep(1, grace+1)
	drain()
	if got := rejected(ctr); got != 0 {
		t.Fatalf("malformed + far-epoch report discards = %d after session A's replay, want 0", got)
	}
	// Then session B's, and both run on past it.
	for e := int32(0); e <= grace+1; e++ {
		rep(2, e)
		tok(2, e)
		drain()
	}
	tok(1, grace+1)
	drain()
	for cycle := int32(grace + 2); cycle <= 2*grace+1; cycle++ {
		c.token(cycle, false, nil)
		c.token(cycle, false, nil)
		drain()
	}
	if len(settled) != grace+2 {
		t.Fatalf("settled %d epochs, want 0 through %d", len(settled), grace+1)
	}
	for i, done := range settled {
		if done.epoch != int32(i) || len(done.accepted) != 2 || done.lost != 0 {
			t.Fatalf("epoch %d settled with %d reports, %d lost; want epoch %d with 2, none lost",
				done.epoch, len(done.accepted), done.lost, i)
		}
	}
	if got := rejected(ctr); got != 0 {
		t.Fatalf("malformed + far-epoch report discards = %d, want 0", got)
	}
	checkConservation(t, ctr)
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
// every bound, paths up to 15 links, past ecmp.MaxPathLinks, and now and
// then an epoch far in the future. Nothing may
// panic, every report must be accounted for once, no more epochs may be
// open than the six cycles reach, epochs must settle in ascending order,
// epochs must be reported final once each, in order, and never more than
// the analyst's queue holds ahead of their settle, and the stream may
// allocate no more than a fixed budget.
func FuzzSettleCoreHostile(f *testing.F) {
	// The first byte is the core's shape; then each op is a kind byte and
	// its operands: report (agent, epoch, seq), token (cycle, count pairs),
	// next. A report's kind byte's high four bits are its path's link
	// count. An epoch byte of 0xfc takes one more byte, b, for epoch 1000+b.
	// testdata/fuzz/FuzzSettleCoreHostile holds the four probes of
	// TestSettleCoreHostileProbes in this encoding, and the far-epoch one.
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
					Path:  make([]topology.LinkID, op>>4),
					Src:   topology.HostID(take() % 4),
					Epoch: hostileOp(take(), 6, 1000, -1, math.MinInt32, math.MaxInt32),
				}
				if r.Epoch == 1000 {
					r.Epoch += int32(take())
				}
				r.Seq = hostileOp(take(), 70, -1, maxAgentSeq-1, maxAgentSeq, math.MaxInt32)
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
			// Tokens name cycles 0 to 5, so no epoch past 7 is reachable.
			if len(c.open) > 8 {
				t.Fatalf("%d epochs open", len(c.open))
			}
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
// as excess, settles its epoch without it, and keeps settling the next. A
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
	s := dialRaw(t, col.Addr())
	defer s.conn.Close()
	s.report(0, 5)
	s.token(0, true, transport.AgentCount{Agent: 1, N: 1})
	s.report(1, 0)
	s.token(1, true, transport.AgentCount{Agent: 1, N: 1})
	// A live token with no summary, then the drain cycle that settles it.
	s.seq++
	s.send(transport.AppendToken(nil, transport.Token{Seq: s.seq, Cycle: 2, Live: true}))
	s.token(3, false)
	s.send(transport.AppendControl(nil, transport.TypeBye))
	waitCollector(t, col)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Epoch != 0 || len(got[0].Reports) != 0 || got[1].Epoch != 1 || len(got[1].Reports) != 1 {
		t.Fatalf("settled %d epochs, want epoch 0 with no report and epoch 1 with one", len(got))
	}
	ctr := col.Counters()
	if ctr.Discards[metrics.ReportExcess].Load() != 1 || ctr.Lost.Load() != 1 || ctr.Accepted.Load() != 1 {
		t.Fatalf("excess %d, lost %d, accepted %d; want 1, 1, 1", ctr.Discards[metrics.ReportExcess].Load(), ctr.Lost.Load(), ctr.Accepted.Load())
	}
	checkConservation(t, ctr)
}

// The far-epoch probe over a raw TCP session: the collector rejects every
// report for an epoch no source has reached, holds no state for them, and
// settles the honest epochs around them whole.
func TestNetCollectorRejectsFarEpochs(t *testing.T) {
	const grace, far = 1, 2000
	var mu sync.Mutex
	var got []*engine.EpochResult
	col, err := ServeCollector(CollectorConfig{
		Listener: listen(t), Grace: grace, MaxRetries: 1,
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
	s := dialRaw(t, col.Addr())
	defer s.conn.Close()
	s.report(0, 0)
	for i := range int32(far) {
		s.report(1000+i, 0)
	}
	s.token(0, true, transport.AgentCount{Agent: 1, N: 1})
	s.report(1, 0)
	s.token(1, true, transport.AgentCount{Agent: 1, N: 1})
	s.token(2, false)
	s.send(transport.AppendControl(nil, transport.TypeBye))
	waitCollector(t, col)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Epoch != 0 || len(got[0].Reports) != 1 || got[1].Epoch != 1 || len(got[1].Reports) != 1 {
		t.Fatalf("settled %d epochs, want epochs 0 and 1 with one report each", len(got))
	}
	ctr := col.Counters()
	if ctr.Discards[metrics.ReportFarEpoch].Load() != far || rejected(ctr) != far || ctr.Accepted.Load() != 2 || ctr.Lost.Load() != 0 {
		t.Fatalf("far-epoch discards %d (with malformed %d), accepted %d, lost %d; want %d (%d), 2, 0",
			ctr.Discards[metrics.ReportFarEpoch].Load(), rejected(ctr), ctr.Accepted.Load(), ctr.Lost.Load(), far, far)
	}
	if open := ctr.OpenEpochs.Load(); open > grace+2 {
		t.Fatalf("%d epochs open after the drain, want at most %d", open, grace+2)
	}
	checkConservation(t, ctr)
}

// rawSession is a transport session written by hand, frame by frame, for
// agent 1.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	seq  uint64
}

// dialRaw opens a session to the collector at addr and completes its
// hello.
func dialRaw(t *testing.T, addr string) *rawSession {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &rawSession{t: t, conn: conn}
	s.send(transport.AppendHello(nil, transport.Hello{Version: transport.Version, Session: 1, ThresholdFrac: 0.01}))
	if typ, _, err := transport.ReadFrame(bufio.NewReader(conn), 0); err != nil || typ != transport.TypeHelloAck {
		t.Fatalf("hello answered with frame type %d: %v", typ, err)
	}
	return s
}

func (s *rawSession) send(body []byte) {
	if _, err := s.conn.Write(transport.Frame(body)); err != nil {
		s.t.Fatal(err)
	}
}

// report sends agent 1's report seq of epoch.
func (s *rawSession) report(epoch, seq int32) {
	s.seq++
	s.send(transport.AppendReport(nil, transport.Report{Seq: s.seq, R: vote.Report{
		FlowID: int64(epoch), Src: 1, Epoch: epoch, Seq: seq, Path: []topology.LinkID{0},
	}}))
}

// token sends the cycle's token, with a summary when it is live.
func (s *rawSession) token(cycle int32, live bool, counts ...transport.AgentCount) {
	s.seq++
	tok := transport.Token{Seq: s.seq, Cycle: cycle, Live: live, Counts: counts}
	if live {
		tok.Summary = &transport.EpochSummary{Epoch: cycle}
	}
	s.send(transport.AppendToken(nil, tok))
}
