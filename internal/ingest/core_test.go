package ingest

import (
	"cmp"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// The settle core against a reference model small enough to read at a
// glance:
//
//	settled(e) = the epoch's emitted reports, in canonical order, that first
//	             reached the core no later than cycle e+grace
//	lost(e)    = emitted(e) − settled(e)
//	final(e)   = the first cycle c < e+grace by which cycle e has completed,
//	             every report of e has reached the core, and every live
//	             epoch before e has settled or is final — if there is one;
//	             else e+grace, the cycle e settles
//
// A seeded generator produces honest event streams — per-agent dense
// sequences, every report delivered zero to two times up to grace+2 cycles
// late, re-requests answered or ignored, the sources' events interleaved —
// and drives them straight into a settleCore: no goroutine, socket or
// sleep. Half the runs also rebuild the core mid-stream at its durable
// watermark and replay what a restarted collector's sessions would.

// coreEvent is one thing a source sends: a report transmission or a token.
// reportID is a report's identity on the agent→collector path: its agent
// (the source host), epoch and sequence.
type reportID struct {
	Agent      topology.HostID
	Epoch, Seq int32
}

func idOf(r vote.Report) reportID { return reportID{Agent: r.Src, Epoch: r.Epoch, Seq: r.Seq} }

type coreEvent struct {
	token   bool
	r       vote.Report
	attempt uint8
	delayed bool
	cycle   int32
	live    bool
	counts  []transport.AgentCount
}

type coreSim struct {
	t                          *testing.T
	rng                        *stats.RNG
	sources, grace, maxRetries int
	epochs                     int32
	core                       *settleCore
	ctr                        *metrics.IngestCounters

	emitted map[int32][]vote.Report  // per epoch, canonical order
	arrival map[reportID]int32       // the cycle a report first reached the core
	due     map[int32][]coreEvent    // transmissions scheduled per cycle
	log     map[int32][]coreEvent    // what was fed, per cycle: the replay source
	byID    map[reportID]vote.Report // for answering re-requests
	rounds  map[int32]int            // per epoch: re-request rounds seen
	lastAt  map[int32]int32          // per epoch: cycle of the newest round
	final   map[int32][]vote.Report  // per epoch reported final before its settle: the reports it came with
	lastFin int32                    // the newest epoch reported final
	finals  int64                    // epochs reported final before their settle, all incarnations
	total   int64                    // reports emitted
	next    int32                    // the cycle that must complete next
	settled int32                    // the epoch that must settle next
}

func (s *coreSim) feed(ev coreEvent) {
	if ev.token {
		s.core.token(ev.cycle, ev.live, ev.counts)
		return
	}
	accepted := s.ctr.Accepted.Load()
	s.core.report(ev.r, ev.attempt, ev.delayed)
	if _, final := s.final[ev.r.Epoch]; final && s.ctr.Accepted.Load() != accepted {
		s.t.Fatalf("report %v accepted after its epoch was reported final", idOf(ev.r))
	}
}

// arrived reports whether every report of epoch e reached the core by cycle c.
func (s *coreSim) arrived(e, c int32) bool {
	for _, r := range s.emitted[e] {
		if at, ok := s.arrival[idOf(r)]; !ok || at > c {
			return false
		}
	}
	return true
}

// emit generates one live epoch: every agent's dense sequence, each report
// scheduled for 0–2 deliveries at cycle offsets 0…grace+2. An agent sends
// 0–5 reports, so it is absent from some epochs and present in others, or
// now and then 150–209, whose first, last and word-boundary sequences
// (63|64, 127|128) are never delivered first time: holes and ranks cross
// bitset words. It returns each source's token counts.
func (s *coreSim) emit(epoch int32, agents int) [][]transport.AgentCount {
	counts := make([][]transport.AgentCount, s.sources)
	for a := 0; a < agents; a++ {
		n, big := s.rng.Intn(6), s.rng.Bool(0.03)
		if big {
			n = 150 + s.rng.Intn(60)
		}
		if n == 0 {
			continue
		}
		src := a % s.sources
		counts[src] = append(counts[src], transport.AgentCount{Agent: topology.HostID(a), N: int32(n)})
		for seq := 0; seq < n; seq++ {
			r := vote.Report{
				FlowID: s.total, Src: topology.HostID(a), Dst: topology.HostID(a + 1), Retx: 1,
				Path: []topology.LinkID{topology.LinkID(a), topology.LinkID(10 + seq)}, Epoch: epoch, Seq: int32(seq),
			}
			s.total++
			s.emitted[epoch] = append(s.emitted[epoch], r)
			s.byID[idOf(r)] = r
			copies := s.rng.Intn(3)
			if big && (seq == 0 || seq == 63 || seq == 64 || seq == 127 || seq == 128 || seq == n-1) {
				copies = 0
			}
			for ; copies > 0; copies-- {
				off := int32(s.rng.Intn(s.grace + 3))
				s.due[epoch+off] = append(s.due[epoch+off], coreEvent{r: r, delayed: off > 0})
			}
		}
	}
	return counts
}

// runCycle feeds one whole cycle — each source's due transmissions, then
// its token, the sources interleaved at random — and checks every cycle the
// core completes.
func (s *coreSim) runCycle(cycle int32, agents int) {
	live := cycle < s.epochs
	counts := make([][]transport.AgentCount, s.sources)
	if live {
		counts = s.emit(cycle, agents)
	}
	queues := make([][]coreEvent, s.sources)
	for _, ev := range s.due[cycle] {
		src := int(ev.r.Src) % s.sources
		queues[src] = append(queues[src], ev)
	}
	delete(s.due, cycle)
	for src := range queues {
		queues[src] = append(queues[src], coreEvent{token: true, cycle: cycle, live: live, counts: counts[src]})
	}
	for left := s.sources; left > 0; {
		src := s.rng.Intn(s.sources)
		if len(queues[src]) == 0 {
			continue
		}
		ev := queues[src][0]
		if queues[src] = queues[src][1:]; len(queues[src]) == 0 {
			left--
		}
		if !ev.token {
			if _, seen := s.arrival[idOf(ev.r)]; !seen {
				s.arrival[idOf(ev.r)] = cycle
			}
		}
		s.log[cycle] = append(s.log[cycle], ev)
		s.feed(ev)
		for done, ok := s.core.next(); ok; done, ok = s.core.next() {
			s.check(done)
		}
	}
	if s.next != cycle+1 {
		s.t.Fatalf("cycle %d did not complete once every source's token was in", cycle)
	}
}

// check holds one completed cycle against the model.
func (s *coreSim) check(done cycleDone) {
	t, cycle := s.t, done.cycle
	if cycle != s.next {
		t.Fatalf("cycle %d completed, want %d: cycles complete once, in order", cycle, s.next)
	}
	s.next++
	var final []int32 // the epochs this cycle must report final, ascending
	if e := cycle - int32(s.grace); e >= s.settled {
		if !done.settled || done.epoch != e || e != s.settled {
			t.Fatalf("cycle %d: settled=%v epoch %d, want epoch %d settled: epochs settle once, in order", cycle, done.settled, done.epoch, s.settled)
		}
		s.settled++
		if done.live != (e < s.epochs) {
			t.Fatalf("epoch %d: live = %v with %d live epochs", e, done.live, s.epochs)
		}
		var want []vote.Report
		for _, r := range s.emitted[e] {
			if at, ok := s.arrival[idOf(r)]; ok && at <= cycle {
				want = append(want, r)
			}
		}
		if len(done.accepted) != len(want) || (len(want) > 0 && !reflect.DeepEqual(done.accepted, want)) {
			t.Fatalf("epoch %d settled %d reports, the model %d:\n got %v\nwant %v", e, len(done.accepted), len(want), done.accepted, want)
		}
		if want := len(s.emitted[e]) - len(want); done.lost != want {
			t.Fatalf("epoch %d: lost %d, the model %d", e, done.lost, want)
		}
		if early, ok := s.final[e]; ok {
			if len(early) != len(done.accepted) || (len(early) > 0 && !reflect.DeepEqual(early, done.accepted)) {
				t.Fatalf("epoch %d was reported final with %d reports and settled %d", e, len(early), len(done.accepted))
			}
			delete(s.final, e)
		} else if done.live {
			final = append(final, e) // never final before: it is now
		}
	} else if done.settled {
		t.Fatalf("cycle %d settled epoch %d again", cycle, done.epoch)
	}

	// Finality: each live epoch once, ascending — at its settle with the
	// reports it settles, unless earlier, at the cycle the model names, with
	// every report it emitted.
	for e := max(s.lastFin+1, s.settled); e < s.epochs && e <= cycle && s.arrived(e, cycle); e++ {
		final = append(final, e)
	}
	if len(done.final) != len(final) {
		t.Fatalf("cycle %d reported %d epochs final, the model %v", cycle, len(done.final), final)
	}
	for i, f := range done.final {
		if f.epoch != final[i] {
			t.Fatalf("cycle %d reported epoch %d final, the model %v", cycle, f.epoch, final)
		}
		s.lastFin = max(s.lastFin, f.epoch)
		if f.epoch < s.settled {
			if len(f.accepted) != len(done.accepted) || (len(f.accepted) > 0 && &f.accepted[0] != &done.accepted[0]) {
				t.Fatalf("epoch %d reported final at its settle with %d reports, not the %d it settles", f.epoch, len(f.accepted), len(done.accepted))
			}
			continue
		}
		if want := s.emitted[f.epoch]; len(f.accepted) != len(want) || (len(want) > 0 && !reflect.DeepEqual(f.accepted, want)) {
			t.Fatalf("epoch %d reported final with %d reports, the model %d", f.epoch, len(f.accepted), len(want))
		}
		s.final[f.epoch] = f.accepted
		s.finals++
	}

	// Re-requests ⊆ missing, in (epoch, agent, seq) order, at most maxRetries
	// rounds an epoch, numbered from 1, round k+1 at least k cycles after
	// round k.
	byID := func(a, b transport.RetryReq) int {
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.Seq, b.Seq))
	}
	if !slices.IsSortedFunc(done.retries, byID) {
		t.Fatalf("cycle %d: re-requests out of order: %v", cycle, done.retries)
	}
	for i, q := range done.retries {
		id := reportID{Agent: q.Agent, Epoch: q.Epoch, Seq: q.Seq}
		if _, emitted := s.byID[id]; !emitted {
			t.Fatalf("cycle %d: re-request for %v, which no agent emitted", cycle, id)
		}
		if at, ok := s.arrival[id]; ok && at <= cycle {
			t.Fatalf("cycle %d: re-request for %v, which arrived in cycle %d", cycle, id, at)
		}
		if q.Epoch > cycle || q.Epoch < cycle-int32(s.grace) {
			t.Fatalf("cycle %d: re-request for epoch %d, outside the open window", cycle, q.Epoch)
		}
		if i == 0 || done.retries[i-1].Epoch != q.Epoch {
			s.rounds[q.Epoch]++
			round := s.rounds[q.Epoch]
			if round > s.maxRetries {
				t.Fatalf("epoch %d: re-request round %d, budget %d", q.Epoch, round, s.maxRetries)
			}
			if last, ok := s.lastAt[q.Epoch]; ok && cycle < last+int32(round-1) {
				t.Fatalf("epoch %d: round %d at cycle %d, round %d was at %d: the schedule wants %d cycles between them", q.Epoch, round, cycle, round-1, last, round-1)
			}
			s.lastAt[q.Epoch] = cycle
		}
		if int(q.Attempt) != s.rounds[q.Epoch] {
			t.Fatalf("epoch %d: attempt %d in round %d", q.Epoch, q.Attempt, s.rounds[q.Epoch])
		}
		if s.rng.Bool(0.6) { // answered next cycle, or ignored
			s.due[cycle+1] = append(s.due[cycle+1], coreEvent{r: s.byID[id], attempt: q.Attempt})
		}
	}
}

// restart rebuilds the core at watermark w, as a collector restarted from
// its checkpoint would, and replays what its sessions still hold: every
// event after their tokens for cycle w. The replayed tokens are for cycles
// that already completed, so none of them may complete a cycle again.
func (s *coreSim) restart(w int32) {
	s.ctr = &metrics.IngestCounters{}
	s.core = newSettleCore(s.sources, s.grace, s.maxRetries, s.ctr, w)
	clear(s.rounds) // the retry budget is per incarnation
	clear(s.lastAt)
	clear(s.final) // and so is finality: the new core reports its epochs again
	s.lastFin = w
	for cycle := w + 1; cycle < s.next; cycle++ {
		for _, ev := range s.log[cycle] {
			s.feed(ev)
			if done, ok := s.core.next(); ok {
				s.t.Fatalf("replayed cycle %d completed cycle %d a second time", cycle, done.cycle)
			}
		}
	}
}

// runCoreSim runs one seeded stream through the model and returns the last
// incarnation's counters and how many epochs were reported final.
func runCoreSim(t *testing.T, seed uint64, restart bool) (*metrics.IngestCounters, int64) {
	rng := stats.NewRNG(seed)
	s := &coreSim{
		t: t, rng: rng,
		sources: 1 + rng.Intn(3), grace: 1 + rng.Intn(3), maxRetries: rng.Intn(4),
		epochs: int32(3 + rng.Intn(6)), ctr: &metrics.IngestCounters{},
		emitted: map[int32][]vote.Report{}, arrival: map[reportID]int32{},
		due: map[int32][]coreEvent{}, log: map[int32][]coreEvent{}, byID: map[reportID]vote.Report{},
		rounds: map[int32]int{}, lastAt: map[int32]int32{}, final: map[int32][]vote.Report{}, lastFin: -1,
	}
	s.core = newSettleCore(s.sources, s.grace, s.maxRetries, s.ctr, -1)
	agents := s.sources * (1 + rng.Intn(3))
	// A restart lands right after some settle was made durable.
	crashAfter := int32(-1)
	if restart {
		crashAfter = int32(s.grace) + int32(rng.Intn(int(s.epochs)))
	}
	// Long enough for the last epoch to settle and the latest delivery to land.
	for cycle := int32(0); cycle < s.epochs+int32(s.grace)+3; cycle++ {
		s.runCycle(cycle, agents)
		if cycle == crashAfter {
			s.restart(cycle - int32(s.grace))
		}
	}
	if s.settled < s.epochs {
		t.Fatalf("settled %d of %d live epochs", s.settled, s.epochs)
	}
	if got := s.ctr.Accepted.Load() + s.ctr.Lost.Load(); !restart && got != s.total {
		t.Fatalf("conservation: Accepted + Lost = %d, emitted %d", got, s.total)
	}
	return s.ctr, s.finals
}

func TestSettleCoreMatchesReferenceModel(t *testing.T) {
	const seeds = 300 // ~0.1 s
	var dups, late, lateDropped, lost, retries, recovered, finals int64
	for seed := uint64(0); seed < seeds; seed++ {
		c, f := runCoreSim(t, seed, seed%2 == 1)
		finals += f
		dups += c.Duplicates.Load()
		late += c.Late.Load()
		lateDropped += c.Discards[metrics.ReportSettled].Load()
		lost += c.Lost.Load()
		retries += c.Retries.Load()
		recovered += c.Recovered.Load()
	}
	if dups == 0 || late == 0 || lateDropped == 0 || lost == 0 || retries == 0 || recovered == 0 || finals == 0 {
		t.Fatalf("the generator left a path idle: duplicates %d, late %d, late-dropped %d, lost %d, retries %d, recovered %d, final %d",
			dups, late, lateDropped, lost, retries, recovered, finals)
	}
}

// has is the bitset read TestHostileSeqStaysSmall checks marks with.
func (a *agentEpoch) has(seq int32) bool {
	w, b := int(seq)>>6, uint(seq)&63
	return w < len(a.seen) && a.seen[w]&(1<<b) != 0
}

// loopEngine replays the settle feed's epoch through Step without
// allocating: its results are prebuilt in a ring longer than the service's
// and re-stamped when reused.
type loopEngine struct {
	engine.Engine
	ring []*engine.EpochResult
	next int
}

func (e *loopEngine) EpochIndex() int { return e.next }

func (e *loopEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	res := e.ring[e.next%len(e.ring)]
	res.Epoch = e.next
	for i := range res.Reports {
		res.Reports[i].Epoch = int32(e.next)
		emit(res.Reports[i])
	}
	e.next++
	return res
}

// A settled epoch costs the core one allocation — the slice it hands over,
// which the sink may keep — at both of bench/'s arrival shapes; one hostile
// epoch leaves nothing resident behind it; a report past its agent's count
// is excess, before its epoch is final or after; and
// the in-process Service adds little per-cycle garbage of its own.
func TestSettleSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		sources int
		lossy   bool
	}{{"inorder", 1, false}, {"interleaved", 4, true}} {
		t.Run(c.name, func(t *testing.T) {
			f := newSettleFeed(c.sources, c.lossy)
			for i := 0; i < 20; i++ {
				f.step()
			}
			settled := f.settled
			allocs := testing.AllocsPerRun(200, f.step)
			if f.settled-settled != 201 {
				t.Fatalf("%d epochs settled in 201 cycles", f.settled-settled)
			}
			if allocs > 4 {
				t.Fatalf("%.1f allocations per settled epoch, budget 4", allocs)
			}
			ctr := f.core.ctr
			if ctr.Lost.Load() != 0 || (c.lossy && (ctr.Recovered.Load() == 0 || ctr.Duplicates.Load() == 0)) {
				t.Fatalf("the feed is not the shape it claims: lost %d, recovered %d, duplicates %d",
					ctr.Lost.Load(), ctr.Recovered.Load(), ctr.Duplicates.Load())
			}
		})
	}

	t.Run("hostile seq", func(t *testing.T) {
		c := newSettleCore(1, 1, 0, &metrics.IngestCounters{}, -1)
		cycle := int32(0)
		const agents = 8
		counts := make([]transport.AgentCount, agents)
		epoch := func(hostile bool) {
			e := cycle
			cycle++
			for a := range counts {
				counts[a] = transport.AgentCount{Agent: topology.HostID(a), N: 4}
				if hostile {
					// The largest admitted seq first: arrivals out of canonical
					// order, so the settle ranks all 16,384 words of each bitset.
					c.report(vote.Report{Src: topology.HostID(a), Epoch: e, Seq: maxAgentSeq - 1}, 0, false)
					counts[a].N = maxAgentSeq
				}
				for q := int32(0); q < 4; q++ {
					c.report(vote.Report{Src: topology.HostID(a), Epoch: e, Seq: q}, 0, false)
				}
			}
			c.token(e, true, counts)
			for _, ok := c.next(); ok; _, ok = c.next() {
			}
		}
		heap := func() int64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return int64(m.HeapAlloc)
		}
		for i := 0; i < 10; i++ {
			epoch(false)
		}
		before := heap()
		epoch(true)
		for i := 0; i < 10; i++ {
			epoch(false)
		}
		// Kept, its bitsets would be 1 MiB and its rank table 512 KiB.
		if grown := heap() - before; grown > 128<<10 {
			t.Fatalf("one hostile epoch left %d KiB resident", grown>>10)
		}
		if lost := c.ctr.Lost.Load(); lost != agents*(maxAgentSeq-5) {
			t.Fatalf("lost %d, want %d", lost, agents*(maxAgentSeq-5))
		}
		runtime.KeepAlive(c)
	})

	t.Run("beyond count", func(t *testing.T) {
		for _, tc := range []struct {
			counts []transport.AgentCount
			excess int64
		}{
			{[]transport.AgentCount{{Agent: 1, N: 1}, {Agent: 2, N: 1}}, 1}, // agent 1's seq 5 is past its count
			{[]transport.AgentCount{{Agent: 2, N: 1}}, 2},                   // agent 1 has no count at all
		} {
			c := newSettleCore(1, 0, 0, &metrics.IngestCounters{}, -1)
			c.report(vote.Report{Src: 2, Epoch: 0, Seq: 0}, 0, false)
			c.report(vote.Report{Src: 1, Epoch: 0, Seq: 5}, 0, false)
			c.report(vote.Report{Src: 1, Epoch: 0, Seq: 0}, 0, false)
			c.token(0, true, tc.counts)
			done, _ := c.next()
			want := int(3 - tc.excess)
			if !done.settled || len(done.accepted) != want || c.ctr.Discards[metrics.ReportExcess].Load() != tc.excess || c.ctr.Lost.Load() != 0 {
				t.Fatalf("counts %v: settled %v with %d reports, excess %d; want %d reports, excess %d",
					tc.counts, done.settled, len(done.accepted), c.ctr.Discards[metrics.ReportExcess].Load(), want, tc.excess)
			}
			checkConservation(t, c.ctr)
		}
		// An epoch reported final, its reports placed and handed to analysis,
		// settles the same set: the report past its count is excess whether
		// it came before the seal or after.
		for _, before := range []bool{true, false} {
			c := newSettleCore(1, 1, 0, &metrics.IngestCounters{}, -1)
			stray := vote.Report{Src: 1, Epoch: 0, Seq: 1}
			if before {
				c.report(stray, 0, false)
			}
			c.report(vote.Report{Src: 1, Epoch: 0, Seq: 0}, 0, false)
			c.token(0, true, []transport.AgentCount{{Agent: 1, N: 1}})
			if done, _ := c.next(); len(done.final) != 1 || len(done.final[0].accepted) != 1 {
				t.Fatalf("stray before the seal %v: epoch 0 not reported final with one report: %+v", before, done.final)
			}
			if !before {
				c.report(stray, 0, false)
			}
			c.token(1, true, nil)
			if done, _ := c.next(); !done.settled || len(done.accepted) != 1 || c.ctr.Discards[metrics.ReportExcess].Load() != 1 {
				t.Fatalf("stray before the seal %v: settled %d reports, excess %d", before, len(done.accepted), c.ctr.Discards[metrics.ReportExcess].Load())
			}
			checkConservation(t, c.ctr)
		}
	})

	t.Run("service", func(t *testing.T) {
		const epochs = 300
		f := newSettleFeed(1, false)
		eng := &loopEngine{Engine: newTestEngine(t, engine.Config{Seed: 1}, soakTopo, 0)}
		for range 7 { // Grace+3: no result is re-stamped while the service still reads it
			eng.ring = append(eng.ring, &engine.EpochResult{Reports: slices.Clone(f.reports)})
		}
		s, err := New(Config{
			Engine: eng, Grace: 4, MaxRetries: 3,
			Faults: FaultConfig{Seed: 1, Drop: 0.005, Duplicate: 0.02, Delay: 0.03, DelayMax: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Run(context.Background(), epochs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perEpoch := float64(after.Mallocs-before.Mallocs) / epochs
		// What remains: the core's settled slice, deliver's result, Analyze's
		// own (TestAnalyzeSteadyStateAllocs), and the pipeline's start-up.
		t.Logf("lanes-lossy shape: %.1f allocations per epoch through the whole service", perEpoch)
		if perEpoch > 40 {
			t.Fatalf("%.1f allocations per epoch through the service, budget 40", perEpoch)
		}
		if ctr := s.Counters(); ctr.SettledEpochs.Load() != epochs || ctr.Lost.Load() != 0 {
			t.Fatalf("settled %d epochs, lost %d", ctr.SettledEpochs.Load(), ctr.Lost.Load())
		}
	})
}
