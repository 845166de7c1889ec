package ingest

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

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
//
// A seeded generator produces honest event streams — per-agent dense
// sequences, every report delivered zero to two times up to grace+2 cycles
// late, re-requests answered or ignored, the sources' events interleaved —
// and drives them straight into a settleCore: no goroutine, socket or
// sleep. Half the runs also rebuild the core mid-stream at its durable
// watermark and replay what a restarted collector's sessions would.

// coreEvent is one thing a source sends: a report transmission or a token.
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
	t                                   *testing.T
	rng                                 *stats.RNG
	sources, grace, maxRetries, backoff int
	epochs                              int32
	core                                *settleCore
	ctr                                 *metrics.IngestCounters

	emitted map[int32][]vote.Report       // per epoch, canonical order
	arrival map[vote.ReportID]int32       // the cycle a report first reached the core
	due     map[int32][]coreEvent         // transmissions scheduled per cycle
	log     map[int32][]coreEvent         // what was fed, per cycle: the replay source
	byID    map[vote.ReportID]vote.Report // for answering re-requests
	rounds  map[int32]int                 // per epoch: re-request rounds seen
	lastAt  map[int32]int32               // per epoch: cycle of the newest round
	total   int64                         // reports emitted
	next    int32                         // the cycle that must complete next
	settled int32                         // the epoch that must settle next
}

func (s *coreSim) feed(ev coreEvent) {
	if ev.token {
		s.core.token(ev.cycle, ev.live, ev.counts)
		return
	}
	s.core.report(ev.r, ev.attempt, ev.delayed)
}

// emit generates one live epoch: every agent's dense sequence, each report
// scheduled for 0–2 deliveries at cycle offsets 0…grace+2. It returns each
// source's token counts.
func (s *coreSim) emit(epoch int32, agents int) [][]transport.AgentCount {
	counts := make([][]transport.AgentCount, s.sources)
	for a := 0; a < agents; a++ {
		n := s.rng.Intn(6)
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
			s.byID[r.ID()] = r
			for copies := s.rng.Intn(3); copies > 0; copies-- {
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
			if _, seen := s.arrival[ev.r.ID()]; !seen {
				s.arrival[ev.r.ID()] = cycle
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
			if at, ok := s.arrival[r.ID()]; ok && at <= cycle {
				want = append(want, r)
			}
		}
		if len(done.accepted) != len(want) || (len(want) > 0 && !reflect.DeepEqual(done.accepted, want)) {
			t.Fatalf("epoch %d settled %d reports, the model %d:\n got %v\nwant %v", e, len(done.accepted), len(want), done.accepted, want)
		}
		if want := len(s.emitted[e]) - len(want); done.lost != want {
			t.Fatalf("epoch %d: lost %d, the model %d", e, done.lost, want)
		}
	} else if done.settled {
		t.Fatalf("cycle %d settled epoch %d again", cycle, done.epoch)
	}

	// Re-requests ⊆ missing, in (epoch, agent, seq) order, at most maxRetries
	// rounds an epoch, numbered from 1, spaced by the linear backoff.
	byID := func(a, b transport.RetryReq) int {
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.Seq, b.Seq))
	}
	if !slices.IsSortedFunc(done.retries, byID) {
		t.Fatalf("cycle %d: re-requests out of order: %v", cycle, done.retries)
	}
	for i, q := range done.retries {
		id := vote.ReportID{Agent: q.Agent, Epoch: q.Epoch, Seq: q.Seq}
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
			if last, ok := s.lastAt[q.Epoch]; ok && cycle < last+1+int32((round-2)*s.backoff) {
				t.Fatalf("epoch %d: round %d at cycle %d, round %d was at %d: backoff %d not kept", q.Epoch, round, cycle, round-1, last, s.backoff)
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
	s.core = newSettleCore(s.sources, s.grace, s.maxRetries, s.backoff, s.ctr, w)
	clear(s.rounds) // the retry budget is per incarnation
	clear(s.lastAt)
	for cycle := w + 1; cycle < s.next; cycle++ {
		for _, ev := range s.log[cycle] {
			s.feed(ev)
			if done, ok := s.core.next(); ok {
				s.t.Fatalf("replayed cycle %d completed cycle %d a second time", cycle, done.cycle)
			}
		}
	}
}

func runCoreSim(t *testing.T, seed uint64, restart bool) *metrics.IngestCounters {
	rng := stats.NewRNG(seed)
	s := &coreSim{
		t: t, rng: rng,
		sources: 1 + rng.Intn(3), grace: 1 + rng.Intn(3), maxRetries: rng.Intn(4), backoff: 1 + rng.Intn(2),
		epochs: int32(3 + rng.Intn(6)), ctr: &metrics.IngestCounters{},
		emitted: map[int32][]vote.Report{}, arrival: map[vote.ReportID]int32{},
		due: map[int32][]coreEvent{}, log: map[int32][]coreEvent{}, byID: map[vote.ReportID]vote.Report{},
		rounds: map[int32]int{}, lastAt: map[int32]int32{},
	}
	s.core = newSettleCore(s.sources, s.grace, s.maxRetries, s.backoff, s.ctr, -1)
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
	return s.ctr
}

func TestSettleCoreMatchesReferenceModel(t *testing.T) {
	const seeds = 300 // ~0.1 s
	var dups, late, lateDropped, lost, retries, recovered int64
	for seed := uint64(0); seed < seeds; seed++ {
		c := runCoreSim(t, seed, seed%2 == 1)
		dups += c.Duplicates.Load()
		late += c.Late.Load()
		lateDropped += c.LateDropped.Load()
		lost += c.Lost.Load()
		retries += c.Retries.Load()
		recovered += c.Recovered.Load()
	}
	if dups == 0 || late == 0 || lateDropped == 0 || lost == 0 || retries == 0 || recovered == 0 {
		t.Fatalf("the generator left a path idle: duplicates %d, late %d, late-dropped %d, lost %d, retries %d, recovered %d",
			dups, late, lateDropped, lost, retries, recovered)
	}
}
